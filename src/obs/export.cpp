#include "obs/export.hpp"

#include <bit>
#include <iterator>
#include <map>
#include <ostream>
#include <string_view>

#include "obs/json.hpp"

namespace swiftest::obs {
namespace {

/// Chrome's `ts` field is in microseconds; emit ns with fixed millimicro
/// precision ("123.456") so nothing is lost and output stays byte-stable.
void append_ts_us(std::string& out, core::SimTime ns) {
  append_i64(out, ns / 1000);
  const auto frac = static_cast<int>(ns % 1000);
  const char digits[4] = {'.', static_cast<char>('0' + frac / 100),
                          static_cast<char>('0' + frac / 10 % 10),
                          static_cast<char>('0' + frac % 10)};
  out.append(digits, sizeof(digits));
}

}  // namespace

TraceWriter::TraceWriter(std::ostream* jsonl, std::ostream* chrome)
    : jsonl_(jsonl), chrome_(chrome) {
  if (chrome_ != nullptr) *chrome_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
}

void TraceWriter::write(const TraceEvent& ev) {
  const char kind = ev.kind == EventKind::kCounter ? 'C' : 'i';
  if (jsonl_ != nullptr) {
    line_ = "{\"ts\":";
    append_i64(line_, ev.ts);
    line_ += ",\"cat\":\"";
    line_ += to_string(ev.category);
    line_ += "\",\"k\":\"";
    line_ += kind;
    line_ += "\",\"name\":\"";
    line_ += ev.name;
    line_ += "\",\"id\":";
    append_u64(line_, ev.id);
    line_ += ",\"v\":";
    append_double(line_, ev.value);
    line_ += "}\n";
    jsonl_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
  }
  if (chrome_ != nullptr) {
    line_.assign(events_ > 0 ? ",\n{\"name\":\"" : "{\"name\":\"");
    line_ += ev.name;
    line_ += "\",\"cat\":\"";
    line_ += to_string(ev.category);
    line_ += "\",\"ph\":\"";
    line_ += kind;
    line_ += "\",\"ts\":";
    append_ts_us(line_, ev.ts);
    line_ += ",\"pid\":1,\"tid\":";
    append_u64(line_, ev.id);
    line_ += kind == 'C' ? ",\"args\":{\"value\":" : ",\"s\":\"t\",\"args\":{\"value\":";
    append_double(line_, ev.value);
    line_ += "}}";
    chrome_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
  }
  ++events_;
  ++per_category_[std::countr_zero(static_cast<std::uint32_t>(ev.category))];
  for (auto& [name, count] : per_name_) {
    if (name == ev.name) {
      ++count;
      return;
    }
  }
  per_name_.emplace_back(ev.name, 1);
}

void TraceWriter::finish() {
  if (chrome_ != nullptr) *chrome_ << "\n]}\n";
}

void write_chrome_trace(const Tracer& tracer, std::ostream& out) {
  TraceWriter writer(nullptr, &out);
  for (const TraceEvent& ev : tracer.events()) writer.write(ev);
  writer.finish();
}

void write_trace_jsonl(const Tracer& tracer, std::ostream& out) {
  TraceWriter writer(&out, nullptr);
  for (const TraceEvent& ev : tracer.events()) writer.write(ev);
}

void write_metrics_json(const MetricsSnapshot& snapshot, std::ostream& out) {
  std::string body = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    body += first ? "\n" : ",\n";
    first = false;
    body += "    ";
    append_json_string(body, name);
    body += ": ";
    append_u64(body, value);
  }
  body += first ? "},\n" : "\n  },\n";
  body += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    body += first ? "\n" : ",\n";
    first = false;
    body += "    ";
    append_json_string(body, name);
    body += ": ";
    append_double(body, value);
  }
  body += first ? "},\n" : "\n  },\n";
  body += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    body += first ? "\n" : ",\n";
    first = false;
    body += "    ";
    append_json_string(body, name);
    body += ": {\"le\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) body += ", ";
      append_double(body, h.bounds[i]);
    }
    body += "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) body += ", ";
      append_u64(body, h.counts[i]);
    }
    body += "], \"count\": ";
    append_u64(body, h.count);
    body += ", \"sum\": ";
    append_double(body, h.sum);
    body += "}";
  }
  body += first ? "}\n" : "\n  }\n";
  body += "}\n";
  out << body;
}

std::vector<std::pair<std::string, double>> summarize_for_manifest(
    const TraceWriter& writer, std::uint64_t dropped) {
  std::vector<std::pair<std::string, double>> out;
  out.emplace_back("events", static_cast<double>(writer.events()));
  out.emplace_back("dropped", static_cast<double>(dropped));
  std::map<std::string, std::uint64_t> per_category;
  for (std::uint32_t bit = 0; bit < std::size(writer.per_category_); ++bit) {
    if (writer.per_category_[bit] > 0) {
      per_category[to_string(static_cast<Category>(1u << bit))] =
          writer.per_category_[bit];
    }
  }
  for (const auto& [cat, count] : per_category) {
    out.emplace_back("cat." + cat, static_cast<double>(count));
  }
  std::map<std::string_view, std::uint64_t> per_name;
  for (const auto& [name, count] : writer.per_name_) per_name[name] += count;
  for (const auto& [name, count] : per_name) {
    out.emplace_back("event." + std::string(name), static_cast<double>(count));
  }
  return out;
}

std::vector<std::pair<std::string, double>> summarize_for_manifest(
    const MetricsSnapshot& snapshot) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, value] : snapshot.counters) {
    out.emplace_back("counter." + name, static_cast<double>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out.emplace_back("gauge." + name, value);
  }
  for (const auto& [name, h] : snapshot.histograms) {
    out.emplace_back("hist." + name + ".count", static_cast<double>(h.count));
    out.emplace_back("hist." + name + ".sum", h.sum);
  }
  return out;
}

}  // namespace swiftest::obs
