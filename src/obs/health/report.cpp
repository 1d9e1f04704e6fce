#include "obs/health/report.hpp"

#include <cstdio>
#include <ostream>

#include "obs/json.hpp"

namespace swiftest::obs::health {

const char* to_string(SloStatus status) noexcept {
  switch (status) {
    case SloStatus::kPass:
      return "pass";
    case SloStatus::kSkipped:
      return "skipped";
    case SloStatus::kViolated:
      return "violated";
  }
  return "unknown";
}

namespace {

void append_aggregate(std::string& out, const AggregateStats& s) {
  out += "{\"count\": ";
  append_u64(out, s.count);
  out += ", \"sum\": ";
  append_double(out, s.sum);
  out += ", \"mean\": ";
  append_double(out, s.mean);
  out += ", \"min\": ";
  append_double(out, s.min);
  out += ", \"max\": ";
  append_double(out, s.max);
  out += ", \"p50\": ";
  append_double(out, s.p50);
  out += ", \"p95\": ";
  append_double(out, s.p95);
  out += ", \"p99\": ";
  append_double(out, s.p99);
  out += "}";
}

/// Fixed two-decimal rendering for the markdown table (humans, not diffs —
/// but snprintf of finite doubles is still deterministic).
std::string fixed(double v, int precision = 2) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace

void write_health_json(const HealthSnapshot& snapshot, const ReportMeta& meta,
                       const SloEvaluation* evaluation, std::ostream& out) {
  std::string body = "{\n  \"meta\": {";
  bool first = true;
  for (const auto& [key, value] : meta) {
    body += first ? "\n" : ",\n";
    first = false;
    body += "    ";
    append_json_string(body, key);
    body += ": ";
    append_json_string(body, value);
  }
  body += first ? "},\n" : "\n  },\n";

  body += "  \"tests\": ";
  append_u64(body, snapshot.tests);
  body += ",\n  \"test_rate\": {\"window_seconds\": ";
  append_double(body, snapshot.test_rate.window_seconds);
  body += ", \"events\": ";
  append_u64(body, snapshot.test_rate.events);
  body += ", \"windows\": ";
  append_u64(body, snapshot.test_rate.windows);
  body += ", \"mean_per_window\": ";
  append_double(body, snapshot.test_rate.mean_per_window);
  body += ", \"max_per_window\": ";
  append_double(body, snapshot.test_rate.max_per_window);
  body += "},\n  \"metrics\": {";

  first = true;
  for (const auto& [metric, cells] : snapshot.metrics) {
    body += first ? "\n" : ",\n";
    first = false;
    body += "    ";
    append_json_string(body, metric);
    body += ": {";
    bool first_cell = true;
    for (const auto& [dim, stats] : cells) {
      body += first_cell ? "\n" : ",\n";
      first_cell = false;
      body += "      ";
      append_json_string(body, dim);
      body += ": ";
      append_aggregate(body, stats);
    }
    body += first_cell ? "}" : "\n    }";
  }
  body += first ? "}" : "\n  }";

  if (evaluation != nullptr) {
    body += ",\n  \"slo\": {\"evaluated\": ";
    append_u64(body, evaluation->results.size());
    body += ", \"violations\": ";
    append_u64(body, evaluation->violations());
    body += ", \"results\": [";
    bool first_result = true;
    for (const SloResult& r : evaluation->results) {
      body += first_result ? "\n" : ",\n";
      first_result = false;
      body += "    {\"name\": ";
      append_json_string(body, r.spec.name);
      body += ", \"metric\": ";
      append_json_string(body, r.spec.metric);
      body += ", \"stat\": ";
      append_json_string(body, r.spec.stat);
      body += ", \"dimension\": ";
      append_json_string(body, r.dimension);
      body += ", \"observed\": ";
      append_double(body, r.observed);
      if (r.spec.max_value) {
        body += ", \"max\": ";
        append_double(body, *r.spec.max_value);
      }
      if (r.spec.min_value) {
        body += ", \"min\": ";
        append_double(body, *r.spec.min_value);
      }
      body += ", \"samples\": ";
      append_u64(body, r.samples);
      body += ", \"status\": ";
      append_json_string(body, to_string(r.status));
      body += "}";
    }
    body += first_result ? "]}" : "\n  ]}";
  }

  body += "\n}\n";
  out << body;
}

void write_health_markdown(const HealthSnapshot& snapshot, const ReportMeta& meta,
                           const SloEvaluation* evaluation, std::ostream& out) {
  std::string body = "# Fleet health report\n\n";
  for (const auto& [key, value] : meta) {
    body += "- **" + key + "**: " + value + "\n";
  }
  body += "- **tests**: " + std::to_string(snapshot.tests) + "\n";
  if (snapshot.test_rate.windows > 0) {
    body += "- **test rate**: " + fixed(snapshot.test_rate.mean_per_window) +
            " per " + fixed(snapshot.test_rate.window_seconds, 0) +
            " s window (max " + fixed(snapshot.test_rate.max_per_window, 0) +
            ")\n";
  }

  body +=
      "\n## Operational signals\n\n"
      "| metric | dimension | n | mean | p50 | p95 | p99 | max |\n"
      "|---|---|---:|---:|---:|---:|---:|---:|\n";
  for (const auto& [metric, cells] : snapshot.metrics) {
    for (const auto& [dim, s] : cells) {
      body += "| " + metric + " | " + dim + " | " + std::to_string(s.count) +
              " | " + fixed(s.mean) + " | " + fixed(s.p50) + " | " +
              fixed(s.p95) + " | " + fixed(s.p99) + " | " + fixed(s.max) +
              " |\n";
    }
  }

  if (evaluation != nullptr) {
    body += "\n## SLO gate\n\n| objective | cell | stat | observed | bound | samples | status |\n"
            "|---|---|---|---:|---|---:|---|\n";
    for (const SloResult& r : evaluation->results) {
      std::string bound;
      if (r.spec.max_value) bound += "<= " + fixed(*r.spec.max_value);
      if (r.spec.min_value) {
        if (!bound.empty()) bound += ", ";
        bound += ">= " + fixed(*r.spec.min_value);
      }
      body += "| " + r.spec.name + " | " + r.dimension + " | " + r.spec.stat +
              " | " + fixed(r.observed) + " | " + bound + " | " +
              std::to_string(r.samples) + " | " + to_string(r.status) + " |\n";
    }
    body += "\n**" + std::to_string(evaluation->violations()) +
            " violation(s) across " + std::to_string(evaluation->results.size()) +
            " evaluated objective(s).**\n";
  }
  out << body;
}

std::vector<std::pair<std::string, double>> summarize_for_manifest(
    const HealthSnapshot& snapshot) {
  std::vector<std::pair<std::string, double>> out;
  out.emplace_back("tests", static_cast<double>(snapshot.tests));
  for (const auto& [metric, cells] : snapshot.metrics) {
    for (const auto& [dim, stats] : cells) {
      const std::string prefix = metric + "[" + dim + "]";
      out.emplace_back(prefix + ".count", static_cast<double>(stats.count));
      out.emplace_back(prefix + ".mean", stats.mean);
      out.emplace_back(prefix + ".p50", stats.p50);
      out.emplace_back(prefix + ".p95", stats.p95);
      out.emplace_back(prefix + ".p99", stats.p99);
    }
  }
  return out;
}

}  // namespace swiftest::obs::health
