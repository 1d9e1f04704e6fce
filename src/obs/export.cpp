#include "obs/export.hpp"

#include <cstdio>
#include <ostream>

#include "obs/json.hpp"

namespace swiftest::obs {
namespace {

/// Chrome's `ts` field is in microseconds; emit ns with fixed millimicro
/// precision ("123.456") so nothing is lost and output stays byte-stable.
void append_ts_us(std::string& out, core::SimTime ns) {
  append_i64(out, ns / 1000);
  const auto frac = static_cast<int>(ns % 1000);
  char buf[8];
  std::snprintf(buf, sizeof(buf), ".%03d", frac);
  out.append(buf);
}

}  // namespace

void write_chrome_trace(const Tracer& tracer, std::ostream& out) {
  std::string line;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const TraceEvent& ev : tracer.events()) {
    line.clear();
    if (!first) line += ",\n";
    first = false;
    line += "{\"name\":\"";
    line += ev.name;
    line += "\",\"cat\":\"";
    line += to_string(ev.category);
    line += "\",\"ph\":\"";
    line += ev.kind == EventKind::kCounter ? 'C' : 'i';
    line += "\",\"ts\":";
    append_ts_us(line, ev.ts);
    line += ",\"pid\":1,\"tid\":";
    append_u64(line, ev.id);
    if (ev.kind == EventKind::kCounter) {
      line += ",\"args\":{\"value\":";
      append_double(line, ev.value);
      line += "}}";
    } else {
      line += ",\"s\":\"t\",\"args\":{\"value\":";
      append_double(line, ev.value);
      line += "}}";
    }
    out << line;
  }
  out << "\n]}\n";
}

void append_trace_jsonl_line(std::string& out, const TraceEvent& ev) {
  out += "{\"ts\":";
  append_i64(out, ev.ts);
  out += ",\"cat\":\"";
  out += to_string(ev.category);
  out += "\",\"k\":\"";
  out += ev.kind == EventKind::kCounter ? 'C' : 'i';
  out += "\",\"name\":\"";
  out += ev.name;
  out += "\",\"id\":";
  append_u64(out, ev.id);
  out += ",\"v\":";
  append_double(out, ev.value);
  out += "}\n";
}

void write_trace_jsonl(const Tracer& tracer, std::ostream& out) {
  std::string line;
  for (const TraceEvent& ev : tracer.events()) {
    line.clear();
    append_trace_jsonl_line(line, ev);
    out << line;
  }
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
    const Tracer& tracer) {
  std::vector<std::pair<std::string, double>> out;
  std::map<std::string, std::uint64_t> per_category;
  for (const TraceEvent& ev : tracer.events()) {
    ++per_category[to_string(ev.category)];
  }
  out.emplace_back("events", static_cast<double>(tracer.size()));
  out.emplace_back("dropped", static_cast<double>(tracer.dropped()));
  out.emplace_back("spilled", static_cast<double>(tracer.spilled()));
  for (const auto& [cat, count] : per_category) {
    out.emplace_back("cat." + cat, static_cast<double>(count));
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

std::optional<TraceArtifactSummary> parse_trace_jsonl(std::string_view text,
                                                      std::string* error) {
  TraceArtifactSummary summary;
  std::size_t lineno = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    ++lineno;
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    std::string line_error;
    const auto doc = parse_json(line, &line_error);
    if (!doc || !doc->is_object()) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": " +
                 (doc ? "not an event object" : line_error);
      }
      return std::nullopt;
    }
    ++summary.events;
    ++summary.per_category[doc->get_string("cat", "?")];
    ++summary.per_name[doc->get_string("name", "?")];
  }
  return summary;
}

std::optional<TraceArtifactSummary> load_trace_jsonl_file(const std::string& path,
                                                          std::string* error) {
  const auto text = read_file(path, error);
  if (!text) return std::nullopt;
  return parse_trace_jsonl(*text, error);
}

}  // namespace swiftest::obs
