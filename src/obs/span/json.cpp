#include "obs/span/json.hpp"

#include <ostream>

#include "obs/json.hpp"

namespace swiftest::obs::span {

std::vector<SpanData> to_span_data(const SpanStore& store) {
  std::vector<SpanData> out;
  out.reserve(store.size());
  for (const SpanRecord& record : store.spans()) {
    SpanData data;
    data.id = record.id;
    data.parent = record.parent;
    data.trace_id = record.trace_id;
    data.name = record.name;
    data.category = to_string(record.category);
    data.start = record.start;
    data.end = record.end;
    data.closed = record.closed;
    for (std::size_t i = 0; i < record.attr_count; ++i) {
      const SpanAttr& attr = record.attrs[i];
      data.attrs.emplace_back(attr.key, attr.type == SpanAttr::Type::kU64
                                            ? static_cast<double>(attr.u64)
                                            : attr.f64);
    }
    out.push_back(std::move(data));
  }
  return out;
}

namespace {

void append_span_json(std::string& out, const SpanRecord& record) {
  out += "{\"id\":";
  append_u64(out, record.id);
  out += ",\"parent\":";
  append_u64(out, record.parent);
  out += ",\"trace\":";
  append_u64(out, record.trace_id);
  out += ",\"name\":";
  append_json_string(out, record.name);
  out += ",\"cat\":\"";
  out += to_string(record.category);
  out += "\",\"start\":";
  append_i64(out, record.start);
  out += ",\"end\":";
  append_i64(out, record.end);
  out += ",\"closed\":";
  out += record.closed ? "true" : "false";
  if (record.attr_count > 0) {
    out += ",\"attrs\":{";
    for (std::size_t i = 0; i < record.attr_count; ++i) {
      const SpanAttr& attr = record.attrs[i];
      if (i > 0) out += ",";
      append_json_string(out, attr.key);
      out += ":";
      if (attr.type == SpanAttr::Type::kU64) {
        append_u64(out, attr.u64);
      } else {
        append_double(out, attr.f64);
      }
    }
    out += "}";
  }
  out += "}";
}

}  // namespace

SpanWriter::SpanWriter(std::ostream* out) : out_(out) {
  if (out_ != nullptr) *out_ << "{\"spans\":[\n";
}

void SpanWriter::write(const SpanRecord& record) {
  line_.assign(spans_++ > 0 ? ",\n" : "");
  if (!record.closed) ++open_;
  if (out_ == nullptr) return;
  append_span_json(line_, record);
  *out_ << line_;
}

void SpanWriter::finish(std::uint64_t dropped) {
  dropped_ = dropped;
  line_ = "\n],\"open\":";
  append_u64(line_, open_);
  line_ += ",\"dropped\":";
  append_u64(line_, dropped_);
  line_ += "}\n";
  if (out_ != nullptr) *out_ << line_;
}

void write_spans_json(const SpanStore& store, std::ostream& out) {
  SpanWriter writer(&out);
  for (const SpanRecord& record : store.spans()) writer.write(record);
  writer.finish(store.dropped());
}

std::optional<std::vector<SpanData>> parse_spans_json(std::string_view text,
                                                      std::string* error) {
  const auto doc = parse_json(text, error);
  if (!doc) return std::nullopt;
  const JsonValue* spans = doc->get("spans");
  if (spans == nullptr || !spans->is_array()) {
    if (error != nullptr) {
      *error = "span document must be an object with a \"spans\" array";
    }
    return std::nullopt;
  }
  std::vector<SpanData> out;
  out.reserve(spans->as_array().size());
  for (const JsonValue& entry : spans->as_array()) {
    if (!entry.is_object()) {
      if (error != nullptr) *error = "span entries must be objects";
      return std::nullopt;
    }
    SpanData data;
    // Ids and timestamps are 64-bit integers; read them exactly (a double
    // would silently round trace nonces above 2^53).
    const auto u64_field = [&entry](const char* key) -> std::uint64_t {
      const JsonValue* v = entry.get(key);
      return v != nullptr ? v->as_u64(0) : 0;
    };
    data.id = u64_field("id");
    data.parent = u64_field("parent");
    data.trace_id = u64_field("trace");
    data.name = entry.get_string("name", "");
    data.category = entry.get_string("cat", "");
    data.start = static_cast<core::SimTime>(u64_field("start"));
    data.end = static_cast<core::SimTime>(u64_field("end"));
    if (const JsonValue* closed = entry.get("closed")) {
      data.closed = closed->as_bool(false);
    }
    if (data.id == 0) {
      if (error != nullptr) *error = "span entry missing a nonzero \"id\"";
      return std::nullopt;
    }
    if (const JsonValue* attrs = entry.get("attrs");
        attrs != nullptr && attrs->is_object()) {
      for (const auto& [key, value] : attrs->members()) {
        data.attrs.emplace_back(key, value.as_number(0.0));
      }
    }
    out.push_back(std::move(data));
  }
  return out;
}

std::vector<std::pair<std::string, double>> summarize_for_manifest(
    const SpanWriter& writer) {
  return {
      {"spans", static_cast<double>(writer.spans())},
      {"open", static_cast<double>(writer.open())},
      {"dropped", static_cast<double>(writer.dropped())},
  };
}

std::optional<std::vector<SpanData>> load_spans_file(const std::string& path,
                                                     std::string* error) {
  const auto text = read_file(path, error);
  if (!text) return std::nullopt;
  return parse_spans_json(*text, error);
}

}  // namespace swiftest::obs::span
