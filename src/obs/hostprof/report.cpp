#include "obs/hostprof/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace swiftest::obs::hostprof {
namespace {

void append_kv_u64(std::string& out, const char* key, std::uint64_t value) {
  out += ",\"";
  out += key;
  out += "\":";
  append_u64(out, value);
}

/// Chrome's `ts`/`dur` are microseconds; render ns as "123.456" so nothing
/// is lost (same fixed form as the sim-time exporter).
void append_us(std::string& out, std::uint64_t ns) {
  append_u64(out, ns / 1000);
  char buf[8];
  std::snprintf(buf, sizeof(buf), ".%03u", static_cast<unsigned>(ns % 1000));
  out.append(buf);
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

std::string thread_label(std::uint32_t tid) {
  return tid == 0 ? "main" : "w" + std::to_string(tid);
}

}  // namespace

void write_prof_jsonl(const ProfData& data, std::ostream& out) {
  std::string line = "{\"type\":\"meta\",\"tool\":\"swiftest-hostprof\",\"version\":2";
  append_kv_u64(line, "chunks", data.chunks);
  append_kv_u64(line, "jobs", data.jobs);
  append_kv_u64(line, "timelines", data.timelines.size());
  append_kv_u64(line, "wall_ns", data.wall_ns);
  line += "}\n";
  out << line;

  for (const TimelineData& tl : data.timelines) {
    line = "{\"type\":\"timeline\"";
    append_kv_u64(line, "tid", tl.tid);
    append_kv_u64(line, "intervals", tl.intervals.size());
    append_kv_u64(line, "dropped", tl.dropped);
    line += "}\n";
    out << line;
    if (tl.worker.valid) {
      line = "{\"type\":\"worker\"";
      append_kv_u64(line, "tid", tl.tid);
      append_kv_u64(line, "busy_ns", tl.worker.busy_ns);
      append_kv_u64(line, "idle_ns", tl.worker.idle_ns);
      append_kv_u64(line, "wall_ns", tl.worker.wall_ns);
      append_kv_u64(line, "pulls", tl.worker.pulls);
      append_kv_u64(line, "steals", tl.worker.steals);
      append_kv_u64(line, "chunks", tl.worker.chunks);
      line += "}\n";
      out << line;
    }
    for (const PhaseAgg& agg : tl.phases) {
      line = "{\"type\":\"phase\"";
      append_kv_u64(line, "tid", tl.tid);
      line += ",\"name\":";
      append_json_string(line, agg.name);
      append_kv_u64(line, "count", agg.count);
      append_kv_u64(line, "total_ns", agg.total_ns);
      append_kv_u64(line, "max_ns", agg.max_ns);
      line += "}\n";
      out << line;
    }
    for (const TimelineData::IntervalData& iv : tl.intervals) {
      line = "{\"type\":\"interval\"";
      append_kv_u64(line, "tid", tl.tid);
      append_kv_u64(line, "depth", iv.depth);
      line += ",\"phase\":";
      append_json_string(line, iv.phase);
      append_kv_u64(line, "t0_ns", iv.t0_ns);
      append_kv_u64(line, "dur_ns", iv.dur_ns);
      append_kv_u64(line, "arg", iv.arg);
      line += "}\n";
      out << line;
    }
  }
}

void write_prof_chrome_trace(const ProfData& data, std::ostream& out) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  std::string line;
  bool first = true;
  for (const TimelineData& tl : data.timelines) {
    line.clear();
    if (!first) line += ",\n";
    first = false;
    line += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    append_u64(line, tl.tid);
    line += ",\"args\":{\"name\":";
    append_json_string(line, tl.tid == 0 ? std::string("main")
                                         : "worker " + std::to_string(tl.tid));
    line += "}}";
    out << line;
  }
  for (const TimelineData& tl : data.timelines) {
    for (const TimelineData::IntervalData& iv : tl.intervals) {
      line = ",\n{\"name\":";
      append_json_string(line, iv.phase);
      line += ",\"cat\":\"host\",\"ph\":\"X\",\"ts\":";
      append_us(line, iv.t0_ns);
      line += ",\"dur\":";
      append_us(line, iv.dur_ns);
      line += ",\"pid\":1,\"tid\":";
      append_u64(line, tl.tid);
      line += ",\"args\":{\"arg\":";
      append_u64(line, iv.arg);
      line += "}}";
      out << line;
    }
  }
  out << "\n]}\n";
}

namespace {

/// The timeline for `tid`, created in place on first reference. Keeps the
/// loader order-independent beyond "meta may come first".
TimelineData& timeline_for(ProfData& data, std::uint32_t tid) {
  for (TimelineData& tl : data.timelines) {
    if (tl.tid == tid) return tl;
  }
  data.timelines.push_back({});
  data.timelines.back().tid = tid;
  return data.timelines.back();
}

bool require(const JsonValue& obj, std::initializer_list<const char*> keys,
             int lineno, std::string* error) {
  for (const char* key : keys) {
    if (obj.get(key) == nullptr) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": missing field \"" + key + "\"";
      }
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<ProfData> read_prof_jsonl(std::istream& in, std::string* error) {
  ProfData data;
  bool saw_meta = false;
  std::string text;
  int lineno = 0;
  while (std::getline(in, text)) {
    ++lineno;
    if (text.empty()) continue;
    std::string parse_error;
    const auto value = parse_json(text, &parse_error);
    if (!value || !value->is_object()) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": " +
                 (parse_error.empty() ? "not a JSON object" : parse_error);
      }
      return std::nullopt;
    }
    const std::string type = value->get_string("type", "");
    if (type == "meta") {
      if (!require(*value, {"chunks", "jobs", "timelines", "wall_ns"}, lineno,
                   error)) {
        return std::nullopt;
      }
      data.chunks = static_cast<std::size_t>(value->get("chunks")->as_u64());
      data.jobs = static_cast<std::size_t>(value->get("jobs")->as_u64());
      data.wall_ns = value->get("wall_ns")->as_u64();
      saw_meta = true;
    } else if (type == "timeline") {
      if (!require(*value, {"tid", "dropped"}, lineno, error)) return std::nullopt;
      timeline_for(data, static_cast<std::uint32_t>(value->get("tid")->as_u64()))
          .dropped = value->get("dropped")->as_u64();
    } else if (type == "worker") {
      if (!require(*value,
                   {"tid", "busy_ns", "idle_ns", "wall_ns", "pulls", "steals", "chunks"},
                   lineno, error)) {
        return std::nullopt;
      }
      TimelineData& tl =
          timeline_for(data, static_cast<std::uint32_t>(value->get("tid")->as_u64()));
      tl.worker.valid = true;
      tl.worker.busy_ns = value->get("busy_ns")->as_u64();
      tl.worker.idle_ns = value->get("idle_ns")->as_u64();
      tl.worker.wall_ns = value->get("wall_ns")->as_u64();
      tl.worker.pulls = value->get("pulls")->as_u64();
      tl.worker.steals = value->get("steals")->as_u64();
      tl.worker.chunks = value->get("chunks")->as_u64();
    } else if (type == "phase") {
      if (!require(*value, {"tid", "name", "count", "total_ns", "max_ns"}, lineno,
                   error)) {
        return std::nullopt;
      }
      PhaseAgg agg;
      agg.name = value->get("name")->as_string();
      agg.count = value->get("count")->as_u64();
      agg.total_ns = value->get("total_ns")->as_u64();
      agg.max_ns = value->get("max_ns")->as_u64();
      timeline_for(data, static_cast<std::uint32_t>(value->get("tid")->as_u64()))
          .phases.push_back(std::move(agg));
    } else if (type == "interval") {
      if (!require(*value, {"tid", "depth", "phase", "t0_ns", "dur_ns", "arg"}, lineno,
                   error)) {
        return std::nullopt;
      }
      TimelineData::IntervalData iv;
      iv.phase = value->get("phase")->as_string();
      iv.t0_ns = value->get("t0_ns")->as_u64();
      iv.dur_ns = value->get("dur_ns")->as_u64();
      iv.depth = static_cast<std::uint32_t>(value->get("depth")->as_u64());
      iv.arg = value->get("arg")->as_u64();
      timeline_for(data, static_cast<std::uint32_t>(value->get("tid")->as_u64()))
          .intervals.push_back(std::move(iv));
    } else {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": unknown record type \"" +
                 type + "\"";
      }
      return std::nullopt;
    }
  }
  if (!saw_meta) {
    if (error != nullptr) *error = "no meta record found";
    return std::nullopt;
  }
  std::sort(data.timelines.begin(), data.timelines.end(),
            [](const TimelineData& a, const TimelineData& b) { return a.tid < b.tid; });
  return data;
}

std::optional<ProfData> load_prof_file(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  return read_prof_jsonl(in, error);
}

ProfReport analyze_prof(const ProfData& data) {
  ProfReport report;
  report.chunks = data.chunks;
  report.jobs = data.jobs;
  report.wall_ns = data.wall_ns;

  std::map<std::string, PhaseRow> phases;
  for (const TimelineData& tl : data.timelines) {
    report.intervals_dropped += tl.dropped;
    for (const PhaseAgg& agg : tl.phases) {
      PhaseRow& row = phases[agg.name];
      row.name = agg.name;
      row.count += agg.count;
      row.total_ns += agg.total_ns;
      row.max_ns = std::max(row.max_ns, agg.max_ns);
      if (tl.tid == 0 && agg.name == kPhasePool) {
        report.pool_wall_ns += agg.total_ns;
      }
    }
    if (tl.worker.valid) {
      ++report.workers;
      report.busy_ns += tl.worker.busy_ns;
      report.idle_ns += tl.worker.idle_ns;
      report.worker_rows.push_back({tl.tid, tl.worker});
    }
    for (const TimelineData::IntervalData& iv : tl.intervals) {
      if (tl.tid == 0 && iv.depth == 0) report.main_coverage += seconds(iv.dur_ns);
      if (iv.phase == kPhaseChunk) {
        report.slowest_chunks.push_back({iv.arg, iv.dur_ns, tl.tid});
      }
    }
  }
  report.main_coverage =
      report.wall_ns > 0 ? report.main_coverage / seconds(report.wall_ns) : 0.0;

  report.serial_ns =
      report.wall_ns > report.pool_wall_ns ? report.wall_ns - report.pool_wall_ns : 0;
  const double serial_s = seconds(report.serial_ns);
  const double busy_s = seconds(report.busy_ns);
  const double work_s = serial_s + busy_s;
  report.serial_fraction = work_s > 0.0 ? serial_s / work_s : 0.0;
  report.amdahl_max_speedup = report.serial_fraction > 0.0
                                  ? 1.0 / report.serial_fraction
                                  : std::numeric_limits<double>::infinity();
  const std::size_t jobs = std::max<std::size_t>(1, report.jobs);
  const double wall_at_jobs = serial_s + busy_s / static_cast<double>(jobs);
  report.amdahl_speedup_at_jobs = wall_at_jobs > 0.0 ? work_s / wall_at_jobs : 0.0;
  report.parallel_efficiency =
      report.workers > 0 && report.pool_wall_ns > 0
          ? busy_s / (static_cast<double>(report.workers) * seconds(report.pool_wall_ns))
          : 0.0;

  if (!report.slowest_chunks.empty()) {
    double total = 0.0;
    std::uint64_t max_ns = 0;
    for (const ChunkRow& row : report.slowest_chunks) {
      total += seconds(row.dur_ns);
      max_ns = std::max(max_ns, row.dur_ns);
    }
    const double mean = total / static_cast<double>(report.slowest_chunks.size());
    report.shard_imbalance = mean > 0.0 ? seconds(max_ns) / mean : 0.0;
    std::sort(report.slowest_chunks.begin(), report.slowest_chunks.end(),
              [](const ChunkRow& a, const ChunkRow& b) {
                return a.dur_ns != b.dur_ns ? a.dur_ns > b.dur_ns : a.chunk < b.chunk;
              });
    if (report.slowest_chunks.size() > 8) report.slowest_chunks.resize(8);
  }

  report.phases.reserve(phases.size());
  for (auto& [name, row] : phases) {
    row.pct_of_wall = report.wall_ns > 0
                          ? 100.0 * static_cast<double>(row.total_ns) /
                                static_cast<double>(report.wall_ns)
                          : 0.0;
    report.phases.push_back(std::move(row));
  }
  std::sort(report.phases.begin(), report.phases.end(),
            [](const PhaseRow& a, const PhaseRow& b) {
              return a.total_ns != b.total_ns ? a.total_ns > b.total_ns
                                              : a.name < b.name;
            });
  return report;
}

void write_prof_report_markdown(const ProfReport& report, std::ostream& out) {
  char line[256];
  out << "# Host-time profile\n\n";
  std::snprintf(line, sizeof(line),
                "- wall-clock: %.3f s (%zu chunks, %zu jobs, %zu worker(s))\n",
                seconds(report.wall_ns), report.chunks, report.jobs, report.workers);
  out << line;
  std::snprintf(line, sizeof(line),
                "- parallel region (%s): %.3f s; parallel efficiency %.1f%%\n",
                kPhasePool, seconds(report.pool_wall_ns),
                100.0 * report.parallel_efficiency);
  out << line;
  std::snprintf(line, sizeof(line),
                "- serial fraction: %.3f (serial %.3f s of %.3f s total work)\n",
                report.serial_fraction, seconds(report.serial_ns),
                seconds(report.serial_ns) + seconds(report.busy_ns));
  out << line;
  if (std::isfinite(report.amdahl_max_speedup)) {
    std::snprintf(line, sizeof(line),
                  "- Amdahl max speedup: %.2fx; predicted at %zu job(s): %.2fx\n",
                  report.amdahl_max_speedup, std::max<std::size_t>(1, report.jobs),
                  report.amdahl_speedup_at_jobs);
  } else {
    std::snprintf(line, sizeof(line),
                  "- Amdahl max speedup: unbounded (no serial time measured)\n");
  }
  out << line;
  std::snprintf(line, sizeof(line),
                "- chunk wall-time imbalance (max/mean): %.2f\n",
                report.shard_imbalance);
  out << line;
  std::snprintf(line, sizeof(line),
                "- calling-thread phase coverage: %.1f%% of wall\n",
                100.0 * report.main_coverage);
  out << line;
  if (report.intervals_dropped > 0) {
    std::snprintf(line, sizeof(line), "- intervals dropped (ring full): %llu\n",
                  static_cast<unsigned long long>(report.intervals_dropped));
    out << line;
  }

  out << "\n## Phases (all threads, ranked by total host time)\n\n"
      << "| phase | count | total s | % of wall | max ms |\n"
      << "|---|---|---|---|---|\n";
  for (const PhaseRow& row : report.phases) {
    std::snprintf(line, sizeof(line), "| %s | %llu | %.4f | %.1f | %.3f |\n",
                  row.name.c_str(), static_cast<unsigned long long>(row.count),
                  seconds(row.total_ns), row.pct_of_wall,
                  static_cast<double>(row.max_ns) / 1e6);
    out << line;
  }
  out << "\nParallel phases sum over threads, so their share can exceed 100%"
         " of wall; that excess is the parallelism.\n";

  out << "\n## Workers\n\n"
      << "| worker | busy s | idle s | busy % | chunks | steals | pulls |\n"
      << "|---|---|---|---|---|---|---|\n";
  for (const WorkerRow& row : report.worker_rows) {
    const double wall_s = seconds(row.stats.wall_ns);
    const std::string label = thread_label(row.tid);
    std::snprintf(line, sizeof(line),
                  "| %s | %.4f | %.4f | %.1f | %llu | %llu | %llu |\n",
                  label.c_str(), seconds(row.stats.busy_ns),
                  seconds(row.stats.idle_ns),
                  wall_s > 0.0 ? 100.0 * seconds(row.stats.busy_ns) / wall_s : 0.0,
                  static_cast<unsigned long long>(row.stats.chunks),
                  static_cast<unsigned long long>(row.stats.steals),
                  static_cast<unsigned long long>(row.stats.pulls));
    out << line;
  }

  if (!report.slowest_chunks.empty()) {
    out << "\n## Slowest chunks\n\n"
        << "| chunk | wall s | worker |\n"
        << "|---|---|---|\n";
    for (const ChunkRow& row : report.slowest_chunks) {
      const std::string label = thread_label(row.tid);
      std::snprintf(line, sizeof(line), "| %llu | %.4f | %s |\n",
                    static_cast<unsigned long long>(row.chunk), seconds(row.dur_ns),
                    label.c_str());
      out << line;
    }
  }
}

std::vector<std::pair<std::string, double>> summarize_for_manifest(
    const ProfData& data) {
  const ProfReport report = analyze_prof(data);
  return {
      {"wall_ns", static_cast<double>(data.wall_ns)},
      {"timelines", static_cast<double>(data.timelines.size())},
      {"serial_fraction", report.serial_fraction},
      {"parallel_efficiency", report.parallel_efficiency},
      {"shard_imbalance", report.shard_imbalance},
      {"main_coverage", report.main_coverage},
  };
}

}  // namespace swiftest::obs::hostprof
