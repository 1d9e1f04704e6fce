#include "obs/resource.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

namespace swiftest::obs {
namespace {

double page_size_mb() {
  static const double mb =
      static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
  return mb;
}

/// VmHWM from /proc/self/status, in MB; 0 when unavailable.
double read_vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kb = 0.0;
    fields >> kb;
    return kb / 1024.0;
  }
  return 0.0;
}

std::string format_mb(double mb) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", mb);
  return buf;
}

std::string format_seconds(double s, int decimals = 3) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, s);
  return buf;
}

}  // namespace

ResourceUsage read_resource_usage() {
  ResourceUsage usage;
  std::ifstream statm("/proc/self/statm");
  if (statm) {
    std::uint64_t total_pages = 0;
    std::uint64_t resident_pages = 0;
    statm >> total_pages >> resident_pages;
    usage.rss_mb = static_cast<double>(resident_pages) * page_size_mb();
  }
  usage.peak_rss_mb = read_vm_hwm_mb();
  if (usage.peak_rss_mb < usage.rss_mb) usage.peak_rss_mb = usage.rss_mb;
  return usage;
}

void ResourceMonitor::begin_run() {
  const std::lock_guard<std::mutex> lock(mutex_);
  tests_done_.store(0, std::memory_order_relaxed);
  shards_done_.store(0, std::memory_order_relaxed);
  shards_drawn_.store(0, std::memory_order_relaxed);
  draw_ended_.store(false, std::memory_order_relaxed);
  total_wall_seconds_ = 0.0;
  shards_.clear();
}

std::string ResourceMonitor::progress_line() const {
  const ResourceUsage usage = read_resource_usage();
  const bool drawing = !draw_ended_.load(std::memory_order_relaxed);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "fleet: %llu tests | shards %llu/%llu%s | rss %.1f MB (peak %.1f)",
                static_cast<unsigned long long>(tests_done()),
                static_cast<unsigned long long>(shards_done()),
                static_cast<unsigned long long>(shards_drawn()), drawing ? "+" : "",
                usage.rss_mb, usage.peak_rss_mb);
  return buf;
}

void ResourceMonitor::record_shard(const ShardTelemetry& telemetry) {
  const std::lock_guard<std::mutex> lock(mutex_);
  shards_.push_back(telemetry);
}

void ResourceMonitor::finish_run(double wall_seconds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  total_wall_seconds_ = wall_seconds;
}

std::vector<ShardTelemetry> ResourceMonitor::shard_telemetry() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return shards_;
}

double ResourceMonitor::peak_rss_mb() { return read_resource_usage().peak_rss_mb; }

ShardTelemetry ResourceMonitor::totals_locked() const {
  ShardTelemetry total;
  for (const ShardTelemetry& t : shards_) {
    total.tests += t.tests;
    total.events_executed += t.events_executed;
    total.slab_slots += t.slab_slots;
    total.callback_heap_fallbacks += t.callback_heap_fallbacks;
    total.payload_nodes += t.payload_nodes;
    total.payload_heap_spills += t.payload_heap_spills;
    total.transit_nodes += t.transit_nodes;
    total.transit_peak_live += t.transit_peak_live;
    total.calendar_sweeps += t.calendar_sweeps;
    total.calendar_rebases += t.calendar_rebases;
    total.calendar_far_pushes += t.calendar_far_pushes;
    total.health_dropped += t.health_dropped;
  }
  return total;
}

void ResourceMonitor::export_metrics(MetricsRegistry& metrics) const {
  ShardTelemetry total;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    total = totals_locked();
  }
  const auto put = [&metrics](const char* name, std::uint64_t value) {
    if (value > 0) metrics.counter(name).inc(value);
  };
  put("obs.resource.slab_slots", total.slab_slots);
  put("obs.resource.callback_heap_fallbacks", total.callback_heap_fallbacks);
  put("obs.resource.payload_nodes", total.payload_nodes);
  put("obs.resource.payload_heap_spills", total.payload_heap_spills);
  put("obs.resource.transit_nodes", total.transit_nodes);
  put("obs.resource.transit_peak_live", total.transit_peak_live);
  put("obs.resource.calendar_sweeps", total.calendar_sweeps);
  put("obs.resource.calendar_rebases", total.calendar_rebases);
  put("obs.resource.calendar_far_pushes", total.calendar_far_pushes);
  // Trace/span drop counts are NOT exported here: the run's hub carries
  // them (the trace stream sums chunk counts) and the CLI surfaces those
  // directly — exporting both would double-count.
  put("obs.health_dropped", total.health_dropped);
}

void ResourceMonitor::append_report_meta(health::ReportMeta& meta) const {
  const double peak_rss = peak_rss_mb();
  const std::lock_guard<std::mutex> lock(mutex_);
  const ShardTelemetry total = totals_locked();
  meta.emplace_back("obs.peak_rss_mb", format_mb(peak_rss));
  meta.emplace_back("obs.wall_s", format_seconds(total_wall_seconds_));
  // Chunk walls as a fixed-size summary: a long run has thousands of chunks.
  // Microsecond resolution, since an analytic chunk takes well under 1 ms.
  std::vector<double> walls;
  walls.reserve(shards_.size());
  for (const ShardTelemetry& t : shards_) walls.push_back(t.wall_seconds);
  std::sort(walls.begin(), walls.end());
  // Nearest rank: the smallest wall that 95% of the chunks do not exceed.
  const double p95 = walls.empty() ? 0.0 : walls[(walls.size() * 95 + 99) / 100 - 1];
  meta.emplace_back("obs.chunks", std::to_string(walls.size()));
  meta.emplace_back("obs.chunk_wall_max_s",
                    format_seconds(walls.empty() ? 0.0 : walls.back(), 6));
  meta.emplace_back("obs.chunk_wall_p95_s", format_seconds(p95, 6));
  meta.emplace_back("obs.events_executed", std::to_string(total.events_executed));
  meta.emplace_back("obs.slab_slots", std::to_string(total.slab_slots));
  meta.emplace_back("obs.transit_nodes", std::to_string(total.transit_nodes));
  meta.emplace_back("obs.transit_peak_live",
                    std::to_string(total.transit_peak_live));
  meta.emplace_back("obs.calendar_sweeps", std::to_string(total.calendar_sweeps));
  // Trace/span drop counts are surfaced from the run's hub (the CLI
  // adds only-nonzero meta entries); duplicating them here would produce
  // conflicting keys in the same report.
  meta.emplace_back("obs.health_dropped", std::to_string(total.health_dropped));
}

}  // namespace swiftest::obs
