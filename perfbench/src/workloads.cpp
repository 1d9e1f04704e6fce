// The four workloads, untraced (end-to-end metrics) and traced (per-layer
// metrics plus the tracing overhead). perfbench/workloads.json records why
// each workload exists and which layers it loads.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "bench_util.hpp"
#include "bts/fast.hpp"
#include "bts/fastbts.hpp"
#include "bts/flooding.hpp"
#include "core/rng.hpp"
#include "common.hpp"
#include "dataset/generator.hpp"
#include "obs/export.hpp"
#include "obs/health/monitor.hpp"
#include "obs/health/report.hpp"
#include "obs/hub.hpp"
#include "obs/span/json.hpp"
#include "swiftest/client.hpp"
#include "swiftest/wire_client.hpp"

namespace perfbench {

namespace sw = swiftest;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

bool is_fleet(const std::string& workload) {
  return workload == "fleet_packet" || workload == "fleet_packet_obs" ||
         workload == "fleet_analytic";
}

/// Clients per technology on bts_compare (4G, 5G and WiFi 5 each).
std::size_t bts_users_per_tech(bool tiny) { return tiny ? 1 : 6; }

constexpr int kSetupRepeats = 3;

/// Seed of the past campaign the Swiftest models are fitted to.
constexpr std::uint64_t kHistorySeed = 2021;

}  // namespace

// ------------------------------------------------------------------ set-up

void build_setup(std::uint64_t seed, bool tiny, SpanLog* spans, Setup& out) {
  std::vector<sw::dataset::TestRecord> history;
  {
    const Span span(spans, "dataset.generate_campaign");
    const auto t0 = Clock::now();
    out.population = sw::dataset::generate_campaign(tiny ? 6'000 : 40'000, 2021, seed);
    // The models are the deployed ones: fitted to one fixed past campaign,
    // whatever the seed. Their fit time then varies with the host only.
    history = sw::dataset::generate_campaign(tiny ? 4'000 : 10'000, 2021, kHistorySeed);
    out.campaign_ms = seconds_since(t0) * 1e3;
  }
  {
    const Span span(spans, "stats.model_fit");
    const auto t0 = Clock::now();
    // Up to four components: a 40k-record, six-component fit takes ~8 s and
    // would dwarf the measured window.
    out.registry = sw::swift::ModelRegistry{};
    out.registry.fit_from_campaign(history, 1, 4, 500);
    out.fit_ms = seconds_since(t0) * 1e3;
  }
}

// ------------------------------------------------------------------ fleets

FleetShape fleet_shape(const std::string& workload, bool tiny) {
  FleetShape s;
  if (workload == "fleet_analytic") {
    s.backend = sw::deploy::FleetBackend::kAnalytic;
    s.servers = 20;
    s.days = tiny ? 1 : 7;
    s.tests_per_day = tiny ? 5'000.0 : 100'000.0;
    return s;
  }
  s.backend = sw::deploy::FleetBackend::kPacket;
  s.servers = 8;
  s.days = 1;
  s.tests_per_day = tiny ? 24.0 : 300.0;
  s.chunk = 32;
  s.obs = workload == "fleet_packet_obs";
  return s;
}

namespace {

/// Re-parents the profiler's calling-thread phases under `parent`, nesting
/// them by recorded depth, so their time counts as children of the span.
void import_phases(const sw::obs::hostprof::ProfData& prof, std::uint64_t epoch_ns,
                   SpanLog::Id parent, SpanLog& spans) {
  if (prof.timelines.empty()) return;
  auto intervals = prof.timelines[0].intervals;
  std::sort(intervals.begin(), intervals.end(), [](const auto& a, const auto& b) {
    return a.t0_ns != b.t0_ns ? a.t0_ns < b.t0_ns : a.depth < b.depth;
  });
  std::vector<std::pair<std::uint32_t, SpanLog::Id>> open;  // (depth, id)
  for (const auto& iv : intervals) {
    while (!open.empty() && open.back().first >= iv.depth) open.pop_back();
    const SpanLog::Id up = open.empty() ? parent : open.back().second;
    const std::uint64_t start = epoch_ns + iv.t0_ns;
    open.emplace_back(iv.depth,
                      spans.add("hostprof." + iv.phase, up, start, start + iv.dur_ns));
  }
}

}  // namespace

FleetPass run_fleet_pass(const Setup& setup, const FleetShape& shape, std::uint64_t seed,
                         const std::string& export_dir, bool instrument, SpanLog* spans) {
  FleetPass pass;
  sw::obs::health::HealthMonitor health;
  std::unique_ptr<sw::obs::Hub> hub;
  if (shape.obs) hub = std::make_unique<sw::obs::Hub>();

  sw::deploy::FleetSimConfig cfg;
  cfg.backend = shape.backend;
  cfg.server_count = shape.servers;
  cfg.server_uplink_mbps = 100.0;
  cfg.days = shape.days;
  cfg.tests_per_day = shape.tests_per_day;
  cfg.seed = seed;
  cfg.jobs = shape.jobs;
  cfg.chunk = shape.chunk;
  cfg.health = &health;
  cfg.obs = hub.get();
  if (shape.obs) cfg.sample.set_denominator(shape.sample_denominator);

  std::unique_ptr<sw::obs::hostprof::HostProfiler> prof;
  sw::obs::ResourceMonitor resource;
  std::uint64_t prof_epoch_ns = 0;
  if (instrument) {
    prof = std::make_unique<sw::obs::hostprof::HostProfiler>();
    prof_epoch_ns = SpanLog::now_ns() - prof->now_ns();
    cfg.hostprof = prof.get();
    cfg.resource = &resource;
  }

  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  SpanLog::Id sim_span = SpanLog::kNone;
  sw::deploy::FleetSimResult result;
  {
    const Span span(spans, "deploy.simulate_fleet");
    sim_span = span.id();
    result = sw::deploy::simulate_fleet(setup.population, setup.registry, cfg);
  }
  pass.simulate_s = seconds_since(t0);
  if (hub != nullptr && !export_dir.empty()) {
    const Span span(spans, "obs.export");
    const auto e0 = Clock::now();
    std::ofstream trace(export_dir + "/trace.jsonl", std::ios::binary | std::ios::trunc);
    sw::obs::write_trace_jsonl(hub->tracer, trace);
    std::ofstream span_file(export_dir + "/spans.json", std::ios::binary | std::ios::trunc);
    sw::obs::span::write_spans_json(hub->spans, span_file);
    std::ofstream metrics(export_dir + "/metrics.json", std::ios::binary | std::ios::trunc);
    sw::obs::write_metrics_json(hub->metrics.snapshot(), metrics);
    if (!trace || !span_file || !metrics) {
      throw std::runtime_error("cannot write obs exports to " + export_dir);
    }
    pass.export_ms = seconds_since(e0) * 1e3;
  }
  pass.wall_s = seconds_since(t0);
  pass.cpu_s = cpu_seconds() - cpu0;
  pass.tests = result.tests_simulated;

  const sw::obs::health::HealthSnapshot snap = health.snapshot();
  const auto* dur = snap.find(sw::obs::health::kMetricDuration, "all");
  const auto* data = snap.find(sw::obs::health::kMetricDataUsage, "all");
  const auto* dev = snap.find(sw::obs::health::kMetricDeviation, "all");
  if (dur != nullptr && data != nullptr && dev != nullptr) {
    pass.completed = dur->count;
    pass.duration_mean_s = dur->mean;
    pass.data_mean_mb = data->mean;
    pass.deviation_mean = dev->mean;
    pass.deviation_max = dev->max;
    pass.finite = std::isfinite(dur->mean) && std::isfinite(data->mean) &&
                  std::isfinite(dev->mean) && std::isfinite(dev->max);
  }
  std::ostringstream health_json;
  sw::obs::health::write_health_json(snap, {}, nullptr, health_json);
  pass.health_digest = fnv1a(health_json.str());

  if (hub != nullptr) {
    pass.trace_retained = hub->tracer.size();
    pass.trace_dropped = hub->tracer.dropped();
    pass.spans_retained = hub->spans.size();
    pass.spans_suppressed = hub->spans.suppressed();
    const auto m = hub->metrics.snapshot();
    pass.metrics_series = m.counters.size() + m.gauges.size() + m.histograms.size();
  }
  if (instrument) {
    prof->finish();
    pass.prof = prof->snapshot();
    pass.chunks = resource.shard_telemetry();
    if (spans != nullptr) import_phases(pass.prof, prof_epoch_ns, sim_span, *spans);
  }
  return pass;
}

void report_fleet_layers(const FleetPass& pass, const FleetShape& shape, bool ledger,
                         Report& report) {
  const auto put = [&](const std::string& name, double value, const char* unit) {
    report.put(ledger, name, value, unit);
  };
  const bool packet = shape.backend == sw::deploy::FleetBackend::kPacket;
  put("deploy.simulate_fleet_s", pass.simulate_s, "s");

  std::map<std::string, double> phase_ms;
  if (!pass.prof.timelines.empty()) {
    for (const auto& agg : pass.prof.timelines[0].phases) {
      phase_ms[agg.name] += static_cast<double>(agg.total_ns) * 1e-6;
    }
  }
  const auto phase = [&](const char* name, const char* metric) {
    if (const auto it = phase_ms.find(name); it != phase_ms.end()) put(metric, it->second, "ms");
  };
  phase("workload.gen", "deploy.workload_gen_ms");
  phase("exec.run", "deploy.exec_run_ms");
  phase("replay.numeric", "deploy.replay_numeric_ms");
  phase("merge", "deploy.merge_ms");

  std::vector<double> busy;
  double idle_ns = 0.0;
  double wall_ns = 0.0;
  double steals = 0.0;
  for (const auto& tl : pass.prof.timelines) {
    if (!tl.worker.valid) continue;
    busy.push_back(static_cast<double>(tl.worker.busy_ns));
    idle_ns += static_cast<double>(tl.worker.idle_ns);
    wall_ns += static_cast<double>(tl.worker.wall_ns);
    steals += static_cast<double>(tl.worker.steals);
  }
  if (!busy.empty() && mean(busy) > 0.0 && wall_ns > 0.0) {
    put("deploy.exec.busy_imbalance",
        *std::max_element(busy.begin(), busy.end()) / mean(busy), "ratio");
    put("deploy.exec.steals", steals, "count");
    put("deploy.exec.idle_share", idle_ns / wall_ns, "ratio");
  }

  if (packet && pass.tests > 0) {
    sw::obs::ShardTelemetry sum;
    for (const auto& c : pass.chunks) {
      sum.events_executed += c.events_executed;
      sum.slab_slots += c.slab_slots;
      sum.transit_nodes += c.transit_nodes;
      sum.payload_nodes += c.payload_nodes;
      sum.callback_heap_fallbacks += c.callback_heap_fallbacks;
      sum.payload_heap_spills += c.payload_heap_spills;
      sum.calendar_rebases += c.calendar_rebases;
      sum.calendar_far_pushes += c.calendar_far_pushes;
    }
    const double n = static_cast<double>(pass.tests);
    put("netsim.events_per_test", static_cast<double>(sum.events_executed) / n, "count/test");
    put("netsim.slab_slots", static_cast<double>(sum.slab_slots) / n, "count/test");
    put("netsim.transit_nodes", static_cast<double>(sum.transit_nodes) / n, "count/test");
    put("netsim.payload_nodes", static_cast<double>(sum.payload_nodes) / n, "count/test");
    put("netsim.callback_heap_fallbacks",
        static_cast<double>(sum.callback_heap_fallbacks) / n, "count/test");
    put("netsim.payload_heap_spills", static_cast<double>(sum.payload_heap_spills) / n,
        "count/test");
    put("netsim.calendar_rebases", static_cast<double>(sum.calendar_rebases) / n,
        "count/test");
    put("netsim.calendar_far_pushes", static_cast<double>(sum.calendar_far_pushes) / n,
        "count/test");
  }

  if (shape.obs) {
    put("obs.trace.retained", static_cast<double>(pass.trace_retained), "count");
    put("obs.trace.dropped", static_cast<double>(pass.trace_dropped), "count");
    put("obs.spans.retained", static_cast<double>(pass.spans_retained), "count");
    put("obs.spans.suppressed", static_cast<double>(pass.spans_suppressed), "count");
    put("obs.metrics.series", static_cast<double>(pass.metrics_series), "count");
    double merge_ms = 0.0;
    for (const char* name : {"merge.tracer", "merge.metrics", "merge.spans",
                             "merge.canonicalize"}) {
      if (const auto it = phase_ms.find(name); it != phase_ms.end()) merge_ms += it->second;
    }
    put("obs.merge_ms", merge_ms, "ms");
    if (pass.export_ms > 0.0) put("obs.export_ms", pass.export_ms, "ms");
  }
}

// ------------------------------------------------------------------ comparison

std::vector<BtsUser> draw_users(std::uint64_t seed, std::size_t per_tech) {
  // As benchutil::run_comparison draws them: per technology truths from the
  // campaign mixtures, then per user a scenario seed and the RNG that shapes
  // its delay, loss and cross traffic. The truths are stratified -- the
  // middle of each of `per_tech` equal-count slices of a sorted pool -- so
  // every seed covers the whole mixture and a handful of users per
  // technology gives seed-to-seed spreads small enough to gate on.
  constexpr std::size_t kPoolPerUser = 64;
  std::vector<BtsUser> users;
  sw::core::Rng rng(seed);
  for (const auto tech : {sw::dataset::AccessTech::k4G, sw::dataset::AccessTech::k5G,
                          sw::dataset::AccessTech::kWiFi5}) {
    auto pool = sw::benchutil::draw_truths(tech, per_tech * kPoolPerUser, rng.next_u64());
    std::sort(pool.begin(), pool.end());
    for (std::size_t slice = 0; slice < per_tech; ++slice) {
      BtsUser user;
      user.tech = tech;
      user.truth_mbps = pool[slice * kPoolPerUser + kPoolPerUser / 2];
      user.scenario_seed = rng.next_u64();
      sw::core::Rng cfg_rng(rng.next_u64());
      user.scenario = sw::benchutil::scenario_for(tech, user.truth_mbps, cfg_rng);
      users.push_back(user);
    }
  }
  return users;
}

namespace {

std::unique_ptr<sw::bts::BandwidthTester> make_tester(int index, sw::dataset::AccessTech tech,
                                                      const sw::swift::ModelRegistry& registry) {
  sw::swift::SwiftestConfig cfg;
  cfg.tech = tech;
  switch (index) {
    case 0:
      return std::make_unique<sw::bts::FastBts>();
    case 1:
      return std::make_unique<sw::bts::FastBtsCi>();
    case 2:
      return std::make_unique<sw::swift::SwiftestClient>(cfg, registry);
    case 3:
      return std::make_unique<sw::swift::WireClient>(cfg, registry);
    default:
      return std::make_unique<sw::bts::FloodingBts>();
  }
}

constexpr const char* kTesterSpans[kTesterCount] = {
    "bts.fast.run", "bts.fastbts.run", "bts.swiftest.run", "bts.swiftest_wire.run",
    "bts.flooding.run"};

}  // namespace

std::vector<TesterRun> run_bts_pass(const std::vector<BtsUser>& users,
                                    const sw::swift::ModelRegistry& registry, SpanLog* spans,
                                    bool swiftest_only) {
  std::vector<TesterRun> runs;
  for (const BtsUser& user : users) {
    for (int t = 0; t < kTesterCount; ++t) {
      if (swiftest_only && t != 2 && t != 3) continue;
      std::unique_ptr<sw::netsim::Scenario> scenario;
      std::unique_ptr<sw::bts::BandwidthTester> tester;
      {
        const Span span(spans, "netsim.scenario_build");
        scenario = std::make_unique<sw::netsim::Scenario>(
            user.scenario, user.scenario_seed + static_cast<std::uint64_t>(t));
        scenario->start_cross_traffic();
        tester = make_tester(t, user.tech, registry);
      }
      TesterRun run;
      run.tester = t;
      run.truth_mbps = user.truth_mbps;
      const Span span(spans, kTesterSpans[t]);
      const auto t0 = Clock::now();
      run.result = tester->run(*scenario);
      run.wall_ms = seconds_since(t0) * 1e3;
      run.events = scenario->scheduler().events_executed();
      runs.push_back(std::move(run));
    }
  }
  return runs;
}

void report_bts_layers(const std::vector<TesterRun>& runs, bool ledger, Report& report) {
  const auto put = [&](const std::string& name, double value, const char* unit) {
    report.put(ledger, name, value, unit);
  };
  for (int t = 0; t < kTesterCount; ++t) {
    std::vector<double> wall;
    std::vector<double> events;
    for (const TesterRun& r : runs) {
      if (r.tester != t) continue;
      wall.push_back(r.wall_ms);
      events.push_back(static_cast<double>(r.events));
    }
    const std::string key = std::string("bts.") + kTesterKeys[t];
    put(key + ".run_ms", quantile(wall, 0.5), "ms");
    put(key + ".events", mean(events), "count/test");
  }
  // FastBTS's estimator on the sample sets its own runs produced.
  std::vector<const std::vector<double>*> sets;
  for (const TesterRun& r : runs) {
    if (r.tester == 1 && !r.result.samples_mbps.empty()) sets.push_back(&r.result.samples_mbps);
  }
  if (!sets.empty()) {
    const int rounds = std::max<int>(1, 2'000 / static_cast<int>(sets.size()));
    double sink = 0.0;
    const double us = median_of(3, [&] {
      const auto t0 = Clock::now();
      for (int i = 0; i < rounds; ++i) {
        for (const auto* s : sets) sink += sw::bts::crucial_interval(*s).estimate;
      }
      return seconds_since(t0) * 1e6 / static_cast<double>(rounds * sets.size());
    });
    put("bts.crucial_interval_us", us, "us");
    report.info("bts.crucial_interval_checksum", sink);
  }
}

// ------------------------------------------------------------------ workload loops

namespace {

/// End-to-end fidelity of Swiftest tests: accuracy (1 - mean deviation,
/// deviation = |est - truth| / max(est, truth) as in the health layer),
/// mean test duration and mean data per test.
void report_fidelity(double deviation_mean, double duration_mean_s, double data_mean_mb,
                     Report& report) {
  report.metric("est_acc_mean", 1.0 - deviation_mean, "ratio");
  report.metric("probe_s_mean", duration_mean_s, "s");
  report.metric("data_mb_mean", data_mean_mb, "MB");
}

/// Passes whose tests define the fidelity metrics. Every run makes at least
/// this many, so those metrics are a pure function of the seed.
constexpr std::size_t kFidelityPasses = 4;

/// Inputs of pass p: the run's seed for pass 0, then independent streams,
/// so a run covers more distinct draws the longer it measures.
std::uint64_t pass_seed(std::uint64_t seed, std::size_t pass) {
  return sw::core::stream_seed(seed, pass);
}

struct PassTiming {
  double tests = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Wall ms per test: one per tester run, or the pass's mean for a fleet.
  std::vector<double> test_ms;
};

/// Every timing is taken per pass and summarized by the value three
/// quarters of the passes meet: the 25th percentile of per-pass rates and
/// the 75th of per-pass latency percentiles. The shared host this runs on
/// alternates between a base speed and faster spells lasting seconds; a
/// median or a total over the run moves with the share of fast spells it
/// caught, this statistic much less.
void report_throughput(const std::vector<PassTiming>& passes, std::uint64_t failed,
                       Report& report) {
  std::vector<double> rate;
  std::vector<double> cpu_rate;
  std::vector<double> p50;
  std::vector<double> p95;
  std::vector<double> pooled;
  double tests = 0.0;
  double wall = 0.0;
  for (const PassTiming& p : passes) {
    rate.push_back(p.tests / p.wall_s);
    cpu_rate.push_back(p.tests / p.cpu_s);
    p50.push_back(quantile(p.test_ms, 0.50));
    p95.push_back(quantile(p.test_ms, 0.95));
    pooled.insert(pooled.end(), p.test_ms.begin(), p.test_ms.end());
    tests += p.tests;
    wall += p.wall_s;
  }
  report.metric("tests_per_s", quantile(rate, 0.25), "tests/s");
  report.metric("tests_per_cpu_s", quantile(cpu_rate, 0.25), "tests/s");
  report.metric("ok_ratio", tests > 0.0 ? (tests - static_cast<double>(failed)) / tests : 0.0,
                "ratio");
  report.metric("test_ms_p50", quantile(p50, 0.75), "ms");
  report.metric("test_ms_p95", quantile(p95, 0.75), "ms");
  report.info("tests", tests);
  report.info("failed_tests", static_cast<double>(failed));
  report.info("passes", static_cast<double>(passes.size()));
  report.info("tests_per_s.pass_min", quantile(rate, 0.0));
  report.info("tests_per_s.pass_median", quantile(rate, 0.5));
  report.info("tests_per_s.pass_max", quantile(rate, 1.0));
  report.info("tests_per_s.overall", tests / wall);
  report.info("test_ms_samples", static_cast<double>(pooled.size()));
  report.info("test_ms_p50.pooled", quantile(pooled, 0.50));
  report.info("test_ms_p95.pooled", quantile(pooled, 0.95));
  report.info("timed_wall_s", wall);
}

/// Failed tests of a fleet pass: arrivals that never produced a completed
/// health sample. A zero estimate shows as deviation 1 and fails the run.
std::uint64_t fleet_failures(const FleetPass& pass, Report& report) {
  report.check(pass.finite, "fleet health aggregates are finite");
  report.check(pass.deviation_max < 1.0, "no fleet test returned a zero estimate");
  return pass.tests >= pass.completed ? pass.tests - pass.completed : pass.tests;
}

/// The analytic backend draws the identical arrival sequence.
void check_against_analytic(const Setup& setup, const FleetShape& shape, std::uint64_t seed,
                            std::uint64_t packet_tests, Report& report) {
  FleetShape analytic = shape;
  analytic.backend = sw::deploy::FleetBackend::kAnalytic;
  analytic.obs = false;
  const FleetPass twin = run_fleet_pass(setup, analytic, seed, "", false, nullptr);
  report.info("analytic_twin_tests", static_cast<double>(twin.tests));
  report.check(twin.tests == packet_tests,
               "packet tests_simulated equals analytic tests_simulated");
}

/// A small untimed pass before timing: the first pass in a process also
/// grows the allocator's pools and the page cache, which later passes reuse.
void warm_up_fleet(const Setup& setup, FleetShape shape, std::uint64_t seed,
                   const std::string& export_dir) {
  if (shape.backend == sw::deploy::FleetBackend::kPacket) {
    shape.tests_per_day /= 4.0;
  } else {
    shape.days = 1;
  }
  (void)run_fleet_pass(setup, shape, seed, export_dir, false, nullptr);
}

/// The same for the comparison: one user per technology.
void warm_up_bts(const Setup& setup, const std::vector<BtsUser>& users, std::size_t per_tech) {
  std::vector<BtsUser> some;
  for (std::size_t i = 0; i < users.size(); i += per_tech) some.push_back(users[i]);
  (void)run_bts_pass(some, setup.registry, nullptr);
}

double setup_median(const Options& o, Setup& setup, std::vector<BtsUser>* users) {
  std::vector<double> totals;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    build_setup(o.seed, o.tiny, nullptr, setup);
    if (users != nullptr) *users = draw_users(o.seed, bts_users_per_tech(o.tiny));
    totals.push_back(seconds_since(t0));
  }
  return quantile(totals, 0.5);
}

void run_fleet(const Options& o, Report& report) {
  const FleetShape shape = fleet_shape(o.workload, o.tiny);
  const bool packet = shape.backend == sw::deploy::FleetBackend::kPacket;
  Setup setup;
  report.metric("setup_s", setup_median(o, setup, nullptr), "s");
  const std::string export_dir = shape.obs ? o.out_dir : "";

  std::vector<FleetPass> passes;
  const auto start = Clock::now();
  while (passes.size() < kFidelityPasses || seconds_since(start) < o.seconds) {
    passes.push_back(run_fleet_pass(setup, shape, pass_seed(o.seed, passes.size()),
                                    export_dir, false, nullptr));
  }

  std::uint64_t failed_total = 0;
  std::uint64_t tests_total = 0;
  std::vector<PassTiming> timing;
  for (const FleetPass& p : passes) {
    tests_total += p.tests;
    failed_total += fleet_failures(p, report);
    const double ms = p.wall_s * 1e3 / static_cast<double>(std::max<std::uint64_t>(1, p.tests));
    timing.push_back(PassTiming{static_cast<double>(p.tests), p.wall_s, p.cpu_s, {ms}});
  }
  report.add_attempts(tests_total, failed_total);
  report_throughput(timing, failed_total, report);

  double n = 0.0;
  double dev = 0.0;
  double dur = 0.0;
  double data = 0.0;
  for (std::size_t i = 0; i < kFidelityPasses; ++i) {
    const FleetPass& p = passes[i];
    const auto w = static_cast<double>(p.completed);
    n += w;
    dev += w * p.deviation_mean;
    dur += w * p.duration_mean_s;
    data += w * p.data_mean_mb;
  }
  if (n > 0.0) report_fidelity(dev / n, dur / n, data / n, report);
  report.info("fidelity_tests", n);
  if (shape.obs) {
    const FleetPass& last = passes.back();
    report.info("export.trace_lines", static_cast<double>(last.trace_retained));
    report.info("export.spans", static_cast<double>(last.spans_retained));
    report.info("export.metric_series", static_cast<double>(last.metrics_series));
    report.info("export_dir", export_dir);
  }
  if (packet) check_against_analytic(setup, shape, o.seed, passes.front().tests, report);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void run_bts(const Options& o, Report& report) {
  Setup setup;
  std::vector<BtsUser> users;
  report.metric("setup_s", setup_median(o, setup, &users), "s");

  // Every pass measures the same users: with the few heavy flooding and
  // FAST runs dominating a pass, distinct users per pass would make the
  // per-pass spread an input effect instead of a host effect.
  std::vector<std::vector<TesterRun>> passes;
  std::vector<PassTiming> timing;
  const auto start = Clock::now();
  while (passes.size() < 2 || seconds_since(start) < o.seconds) {
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    passes.push_back(run_bts_pass(users, setup.registry, nullptr));
    PassTiming t{static_cast<double>(passes.back().size()), seconds_since(t0),
                 cpu_seconds() - cpu0, {}};
    for (const TesterRun& r : passes.back()) t.test_ms.push_back(r.wall_ms);
    timing.push_back(std::move(t));
  }

  std::uint64_t tests = 0;
  std::uint64_t failed = 0;
  const auto& first = passes.front();
  for (const auto& pass : passes) {
    bool same = pass.size() == first.size();
    for (std::size_t i = 0; i < pass.size(); ++i) {
      ++tests;
      const double est = pass[i].result.bandwidth_mbps;
      if (!std::isfinite(est) || est <= 0.0) ++failed;
      same = same && est == first[i].result.bandwidth_mbps && pass[i].events == first[i].events;
    }
    report.check(same, "repeated passes at one seed give identical results");
  }
  report.check(failed == 0, "every tester returns a finite positive estimate");
  report.add_attempts(tests, failed);
  report_throughput(timing, failed, report);
  report.info("users_per_pass", static_cast<double>(users.size()));

  // Fidelity from a larger, untimed Swiftest-only sample: Swiftest runs cost
  // milliseconds, and a few dozen users leave a seed-to-seed spread in mean
  // data per test of over 10% (144 users: 6%).
  const auto sample = run_bts_pass(
      draw_users(sw::core::stream_seed(o.seed, 1), o.tiny ? 2 : 48), setup.registry, nullptr,
      /*swiftest_only=*/true);
  std::vector<double> dev;
  std::vector<double> dur;
  std::vector<double> data;
  for (const TesterRun& r : sample) {
    dev.push_back(sw::bts::deviation(r.result.bandwidth_mbps, r.truth_mbps));
    dur.push_back(sw::core::to_seconds(r.result.total_duration()));
    data.push_back(r.result.data_used.megabytes());
  }
  report_fidelity(mean(dev), mean(dur), mean(data), report);
  report.info("fidelity_tests", static_cast<double>(sample.size()));
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

// ------------------------------------------------------------------ traced

double per_test(double wall_s, std::uint64_t tests) {
  return wall_s / static_cast<double>(std::max<std::uint64_t>(1, tests));
}

void traced_fleet(const Options& o, const Setup& setup, SpanLog& spans, Report& report) {
  const FleetShape shape = fleet_shape(o.workload, o.tiny);
  const bool packet = shape.backend == sw::deploy::FleetBackend::kPacket;
  const std::string export_dir = shape.obs ? o.out_dir : "";

  warm_up_fleet(setup, shape, o.seed, export_dir);
  const FleetPass base = run_fleet_pass(setup, shape, o.seed, export_dir, false, nullptr);
  FleetPass traced;
  {
    const Span span(&spans, "workload.traced_pass");
    traced = run_fleet_pass(setup, shape, o.seed, export_dir, true, &spans);
  }
  report.check(traced.tests == base.tests && traced.health_digest == base.health_digest,
               "instrumented pass matches the plain pass");
  report.add_attempts(base.tests + traced.tests,
                      fleet_failures(base, report) + fleet_failures(traced, report));
  report.metric("bench.trace_overhead_ratio",
                per_test(traced.wall_s, traced.tests) / per_test(base.wall_s, base.tests),
                "ratio");
  report.info("trace_overhead.untraced_s_per_test", per_test(base.wall_s, base.tests));
  report.info("trace_overhead.traced_s_per_test", per_test(traced.wall_s, traced.tests));
  report_fleet_layers(traced, shape, false, report);

  if (packet) {
    // The same draws with the obs hub toggled, both passes untraced.
    FleetShape twin = shape;
    twin.obs = !shape.obs;
    const FleetPass other = run_fleet_pass(setup, twin, o.seed, twin.obs ? o.out_dir : "",
                                           false, nullptr);
    const FleetPass& with_obs = shape.obs ? base : other;
    const FleetPass& without = shape.obs ? other : base;
    report.metric("obs.overhead_ratio",
                  per_test(with_obs.wall_s, with_obs.tests) /
                      per_test(without.wall_s, without.tests),
                  "ratio");
    report.info("obs_overhead.with_obs_s_per_test", per_test(with_obs.wall_s, with_obs.tests));
    report.info("obs_overhead.without_obs_s_per_test",
                per_test(without.wall_s, without.tests));
    report.check(other.health_digest == base.health_digest,
                 "obs on and off give the same health report");
    check_against_analytic(setup, shape, o.seed, base.tests, report);
  }

  // Partition invariance: jobs 1 reproduces the jobs 2 health report.
  FleetShape serial = shape;
  serial.jobs = 1;
  const FleetPass one = run_fleet_pass(setup, serial, o.seed, "", false, nullptr);
  report.check(one.health_digest == base.health_digest,
               "health report digest at jobs 1 equals jobs 2");
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(base.health_digest));
  report.info("health_digest", digest);
}

void traced_bts(const Options& o, const Setup& setup, SpanLog& spans, Report& report) {
  const auto users = draw_users(o.seed, bts_users_per_tech(o.tiny));
  warm_up_bts(setup, users, bts_users_per_tech(o.tiny));
  const auto t0 = Clock::now();
  const auto base = run_bts_pass(users, setup.registry, nullptr);
  const double base_s = seconds_since(t0);
  std::vector<TesterRun> traced;
  double traced_s = 0.0;
  {
    const Span span(&spans, "workload.traced_pass");
    const auto t1 = Clock::now();
    traced = run_bts_pass(users, setup.registry, &spans);
    traced_s = seconds_since(t1);
  }
  std::uint64_t failed = 0;
  bool same = base.size() == traced.size();
  for (std::size_t i = 0; i < traced.size(); ++i) {
    for (const TesterRun* r : {&base[i], static_cast<const TesterRun*>(&traced[i])}) {
      const double est = r->result.bandwidth_mbps;
      if (!std::isfinite(est) || est <= 0.0) ++failed;
    }
    same = same && base[i].result.bandwidth_mbps == traced[i].result.bandwidth_mbps;
  }
  report.check(same, "traced pass matches the plain pass");
  report.check(failed == 0, "every tester returns a finite positive estimate");
  report.add_attempts(base.size() + traced.size(), failed);
  report.metric("bench.trace_overhead_ratio", traced_s / base_s, "ratio");
  report.info("trace_overhead.untraced_s_per_test", per_test(base_s, base.size()));
  report.info("trace_overhead.traced_s_per_test", per_test(traced_s, traced.size()));
  report_bts_layers(traced, false, report);
}

void run_traced(const Options& o, Report& report) {
  SpanLog spans;
  Setup setup;
  {
    const Span span(&spans, "setup");
    build_setup(o.seed, o.tiny, &spans, setup);
  }
  report.metric("dataset.generate_campaign_ms", setup.campaign_ms, "ms");
  report.metric("stats.model_fit_ms", setup.fit_ms, "ms");
  {
    const Span span(&spans, "workload");
    if (is_fleet(o.workload)) {
      traced_fleet(o, setup, spans, report);
    } else {
      traced_bts(o, setup, spans, report);
    }
  }
  {
    const Span span(&spans, "ledger");
    run_ledger(o, setup, &spans, report);
  }
  for (const auto& [name, t] : spans.totals()) {
    report.info("span." + name + ".count", static_cast<double>(t.count));
    report.info("span." + name + ".total_ms", static_cast<double>(t.total_ns) * 1e-6);
    report.info("span." + name + ".self_ms", static_cast<double>(t.self_ns) * 1e-6);
  }
}

}  // namespace

void run_workload(const Options& options, Report& report) {
  if (!is_fleet(options.workload) && options.workload != "bts_compare") {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  report.info("workload", options.workload);
  report.info("seed", static_cast<double>(options.seed));
  report.info("build_type", PERFBENCH_BUILD_TYPE);
  report.info("compiler", PERFBENCH_COMPILER);
  report.info("size", options.tiny ? "tiny" : "full");
  if (options.trace) {
    run_traced(options, report);
  } else if (is_fleet(options.workload)) {
    run_fleet(options, report);
  } else {
    run_bts(options, report);
  }
}

}  // namespace perfbench
