// The packet fleet backend: every test a real WireClient through its own
// isolated netsim::Testbed (FleetBackend::kPacket).
#include <map>

#include "bts/tester.hpp"
#include "deploy/fleet_run.hpp"
#include "netsim/testbed.hpp"
#include "swiftest/fleet.hpp"
#include "swiftest/wire_client.hpp"

namespace swiftest::deploy::detail {
namespace {

/// Decorrelates packet testbed topology randomness from the workload draw
/// stream; each test's private testbed further splits it with
/// core::stream_seed of the test's global draw index.
constexpr std::uint64_t kTestbedSeedSalt = 0x9E3779B97F4A7C15ull;

/// One packet chunk's output. Every test in the chunk runs in its own
/// isolated testbed (seeded by the test's global draw index), so a chunk is
/// a pure function of its slice of draws: per-(window, server) delivered
/// bytes and per-server protocol counters are *integers* that sum exactly —
/// in any order — at commit. That is what makes the packet artifacts
/// partition-free, at the documented cost of not modeling cross-test egress
/// contention. The hub mirrors config.obs (null when disabled).
struct PacketChunk : ChunkBase {
  struct WindowDelta {
    std::uint32_t window = 0;
    std::uint32_t server = 0;
    std::int64_t bytes = 0;
  };
  std::vector<WindowDelta> deltas;
  std::vector<std::uint64_t> server_accepted;    // [server_count]
  std::vector<std::int64_t> server_probe_bytes;  // [server_count]
};

void run_packet_test(const Arrival& a, const swift::ModelRegistry& registry,
                     const FleetSimConfig& config, std::int64_t windows_total,
                     PacketChunk& out) {
  // Whole-test sampling: keyed on the global draw index, so the decision is
  // identical for every chunk size and jobs value.
  const bool sampled_mode = config.sample.enabled();
  const bool sampled_test = config.sample.sampled(a.test_id, config.seed);
  const bool count_sampled = sampled_test && sampled_mode;
  netsim::TestbedConfig tb_cfg;
  tb_cfg.fleet.server_count = config.server_count;
  tb_cfg.fleet.server_uplink = core::Bandwidth::mbps(config.server_uplink_mbps);
  netsim::ClientAccessConfig slot_cfg;
  slot_cfg.access_rate = core::Bandwidth::mbps(1000);  // re-set to truth below
  tb_cfg.clients = {slot_cfg};
  netsim::Testbed testbed(
      tb_cfg, core::stream_seed(config.seed ^ kTestbedSeedSalt, a.test_id));
  netsim::Scheduler& sched = testbed.scheduler();
  // Each test keeps its own hub for metrics and spans: spans fold into the
  // chunk hub right after the test, while the metrics snapshot is kept per
  // test for the draw-order fold at commit (see ChunkBase::metric_snaps).
  // Trace events skip the per-test hub: a sampled test records straight into
  // the chunk ring (tests in a chunk run one after another, so the ring sees
  // the same events in the same order a per-test fold would give it, and its
  // overflow runs catch a test that fills it), and an unsampled test traces
  // nothing.
  std::unique_ptr<obs::Hub> test_hub;
  if (out.hub != nullptr) {
    test_hub = obs::Hub::mirror_of(*out.hub);
    if (sampled_mode) test_hub->spans.set_sampled_mode(true);
    // Span ids are store-local and partition-dependent; the begin/end tracer
    // mirror would leak them into the merged trace, so spans mirror into
    // metrics only.
    test_hub->spans.set_sinks(nullptr, &test_hub->metrics);
  }
  sched.set_obs(test_hub.get());
  if (out.hub != nullptr) sched.set_tracer(sampled_test ? &out.hub->tracer : nullptr);

  swift::ServerConfig server_cfg;
  server_cfg.uplink = core::Bandwidth::mbps(config.server_uplink_mbps);

  obs::health::SampleLog* health = config.health != nullptr ? &out.log : nullptr;
  netsim::ClientContext& ctx = testbed.client(0);
  // Every span this test's client (or the wire protocol under it) would
  // begin becomes a no-op when unsampled.
  ctx.spans().set_suppressed(!sampled_test);

  const std::int64_t W = kUtilizationWindowSeconds;
  const core::SimTime start = a.second * core::seconds(1);

  std::unique_ptr<swift::ServerFleet> fleet;
  std::unique_ptr<swift::WireClient> wire;
  obs::span::SpanId test_span = obs::span::kNoSpan;
  bool done = false;

  auto trace_fleet = [&sched](const char* name, std::uint64_t id, double value) {
    if (auto* tr = sched.tracer(obs::Category::kFleet)) {
      tr->record(sched.now(), obs::Category::kFleet, obs::EventKind::kInstant,
                 name, id, value);
    }
  };

  // Utilization windows tick on the GLOBAL W-second grid — window w's
  // delivered-byte delta is read at time (w+1)*W regardless of when the
  // test started — so per-window deltas from different tests line up and
  // sum exactly at commit. The chain self-terminates once the test is done
  // and a tick sees no new bytes.
  std::vector<std::int64_t> last_delivered(config.server_count, 0);
  std::int64_t window_index = a.second / W;
  std::function<void()> tick = [&] {
    bool moved = false;
    for (std::size_t s = 0; s < config.server_count; ++s) {
      const netsim::LinkBase* egress = testbed.server_egress(s);
      const std::int64_t delivered =
          egress != nullptr ? egress->stats().bytes_delivered : 0;
      const std::int64_t delta = delivered - last_delivered[s];
      last_delivered[s] = delivered;
      if (delta != 0) {
        out.deltas.push_back(
            PacketChunk::WindowDelta{static_cast<std::uint32_t>(window_index),
                                     static_cast<std::uint32_t>(s), delta});
        moved = true;
      }
    }
    ++window_index;
    if (window_index < windows_total && (moved || !done)) {
      sched.schedule_in(W * core::seconds(1), tick);
    }
  };

  sched.schedule_at(start, [&] {
    if (health != nullptr) health->note_arrival(static_cast<double>(a.second));
    // Servers are born at test start, not at t = 0: their idle-GC timers
    // only tick while the test lives, which keeps this private scheduler's
    // event count proportional to the test, not to the simulated week.
    fleet = std::make_unique<swift::ServerFleet>(testbed, server_cfg);
    if (auto* hub = sched.obs()) {
      hub->metrics.counter("fleet.tests_started").inc();
      if (count_sampled) hub->metrics.counter("fleet.tests_sampled").inc();
    }
    if (sampled_test) trace_fleet("fleet.test_start", a.test_id, a.rate_mbps);
    ctx.access_link().set_rate(core::Bandwidth::mbps(a.truth_mbps));

    swift::SwiftestConfig wc_cfg;
    wc_cfg.tech = a.tech;
    wc_cfg.server_uplink_mbps = config.server_uplink_mbps;
    wire = std::make_unique<swift::WireClient>(wc_cfg, registry, server_cfg);
    wire->attach_fleet(*fleet);
    wire->set_forced_server(a.first_server);
    auto& sctx = ctx.spans();
    test_span = sctx.begin(obs::Category::kFleet, "fleet.test");
    if (auto* spans = sctx.store()) {
      spans->attr_f64(test_span, "truth_mbps", a.truth_mbps);
      spans->attr_u64(test_span, "server", a.first_server);
    }
    sctx.push(test_span);
    wire->start(ctx, [&](const bts::BtsResult& r) {
      done = true;
      if (sampled_test) trace_fleet("fleet.test_done", a.test_id, r.bandwidth_mbps);
      if (auto* hub = sched.obs()) {
        hub->spans.attr_f64(test_span, "estimate_mbps", r.bandwidth_mbps);
        hub->spans.end(test_span, sched.now());
      }
      test_span = obs::span::kNoSpan;
      if (health != nullptr) {
        DimensionTable::record_test(*health, a, core::to_seconds(r.total_duration()),
                                    r.data_used.megabytes(),
                                    bts::deviation(r.bandwidth_mbps, a.truth_mbps));
      }
    });
    sctx.pop(test_span);
    if (window_index < windows_total) {
      sched.schedule_at((window_index + 1) * W * core::seconds(1), tick);
    }
    ++out.tests;
  });

  // Bound covers the protocol's hard stop (start + max_duration), delivery
  // drain, and one trailing window tick; the tick chain and the servers'
  // GC timers cannot outlive it.
  sched.run_until(start + core::seconds(30) + W * core::seconds(1));

  if (fleet != nullptr) {
    for (std::size_t s = 0; s < config.server_count; ++s) {
      const swift::ServerStats& stats = fleet->server(s).stats();
      out.server_accepted[s] += stats.requests_accepted;
      out.server_probe_bytes[s] += stats.probe_bytes_sent;
    }
  }

  if (test_hub != nullptr) {
    // Hand this test's spans to the chunk now and bank the metrics snapshot
    // for the commit-time draw-order fold.
    out.records.take_spans(test_hub->spans);
    out.metric_snaps.push_back(test_hub->metrics.snapshot());
  }

  // Scheduler-side self-telemetry, summed across the chunk's testbeds.
  const netsim::Scheduler::AllocStats alloc = sched.alloc_stats();
  const netsim::CalendarEventQueue::Stats cal = sched.calendar_stats();
  obs::ShardTelemetry& t = out.telemetry;
  t.events_executed += sched.events_executed();
  t.slab_slots += alloc.slab_slots;
  t.callback_heap_fallbacks += alloc.callback_heap_fallbacks;
  t.payload_nodes += alloc.payload_nodes;
  t.payload_heap_spills += alloc.payload_heap_spills;
  t.transit_nodes += alloc.transit_nodes;
  t.transit_peak_live = std::max(t.transit_peak_live, alloc.transit_peak_live);
  t.calendar_sweeps += cal.sweeps;
  t.calendar_rebases += cal.rebases;
  t.calendar_far_pushes += cal.far_pushes;
}

}  // namespace

FleetSimResult run_packet(std::span<const dataset::TestRecord> population,
                          const swift::ModelRegistry& registry,
                          const FleetSimConfig& config) {
  FleetRun run(population, registry, config, config.obs != nullptr);
  const Period period = sim_period(config);
  const double window_capacity_mbit =
      config.server_uplink_mbps * static_cast<double>(kUtilizationWindowSeconds);
  const bool egress_counters =
      config.obs != nullptr && config.obs->tracer.wants(obs::Category::kFleet);

  // Integer sums, commutative and associative: the committed sums are
  // exactly partition-independent, no canonical summation order needed. A
  // test's bytes land in windows from its arrival's on, so window w is final
  // once a commit's last arrival reaches (w+1)*W; only the windows with
  // bytes that are not yet final are held, at most the windows of one
  // chunk's tests.
  std::map<std::int64_t, std::vector<std::int64_t>> open;  // window -> [server] bytes
  std::int64_t next_window = 0;  // the first window not yet closed
  std::uint64_t overloaded_windows = 0;
  std::vector<std::uint64_t> accepted(config.server_count, 0);
  std::vector<std::int64_t> probe_bytes(config.server_count, 0);

  // Closes every window before `end`, once each, window-major then server:
  // one fleet.egress_util counter per (window, server) on the global grid,
  // stamped at the window's end; then each busy server's utilization into
  // the busy windows, `egress` (when non-null) and the
  // fleet.window_utilization histogram; and the overload count.
  const auto close_windows = [&](std::int64_t end, obs::health::SampleLog* egress) {
    for (; next_window < std::min(end, period.windows); ++next_window) {
      const bool held = !open.empty() && open.begin()->first == next_window;
      if (!held && !egress_counters) continue;
      const core::SimTime ts =
          (next_window + 1) * kUtilizationWindowSeconds * core::seconds(1);
      double window_total = 0.0;
      for (std::size_t s = 0; s < config.server_count; ++s) {
        const std::int64_t bytes = held ? open.begin()->second[s] : 0;
        const double util =
            100.0 * static_cast<double>(bytes) * 8.0 / 1e6 / window_capacity_mbit;
        if (egress_counters) {
          run.trace->add({ts, obs::Category::kFleet, obs::EventKind::kCounter,
                          "fleet.egress_util", s, util});
        }
        window_total += util;
        if (util > 0.0) {
          run.result.busy_window_utilization.push_back(util);
          if (egress != nullptr) {
            egress->record_egress_utilization(static_cast<std::uint32_t>(s), util);
          }
          if (config.obs != nullptr) {
            config.obs->metrics
                .histogram("fleet.window_utilization",
                           {5.0, 15.0, 30.0, 45.0, 60.0, 80.0, 95.0})
                .observe(util);
          }
        }
      }
      // Fleet egress effectively saturated (the overload proxy).
      if (window_total >= 98.0 * static_cast<double>(config.server_count)) {
        ++overloaded_windows;
      }
      if (held) open.erase(open.begin());
    }
  };

  // The chunk hub is an accumulator: sampled tests trace straight into its
  // ring, spans go to the chunk's records from per-test hubs after each
  // test, and metrics stay banked per test (run_packet_test).
  run.stream<PacketChunk>(
      [&] { return config.obs != nullptr ? obs::Hub::mirror_of(*config.obs) : nullptr; },
      [&](PacketChunk& out) {
        out.server_accepted.assign(config.server_count, 0);
        out.server_probe_bytes.assign(config.server_count, 0);
        out.metric_snaps.reserve(out.arrivals.size());
        for (const Arrival& a : out.arrivals) {
          run_packet_test(a, registry, config, period.windows, out);
        }
      },
      [&](PacketChunk& chunk) {
        for (const PacketChunk::WindowDelta& d : chunk.deltas) {
          std::vector<std::int64_t>& bytes = open[d.window];
          if (bytes.empty()) bytes.assign(config.server_count, 0);
          bytes[d.server] += d.bytes;
        }
        for (std::size_t s = 0; s < chunk.server_accepted.size(); ++s) {
          accepted[s] += chunk.server_accepted[s];
          probe_bytes[s] += chunk.server_probe_bytes[s];
        }
        const obs::hostprof::HostScope scope(run.host_tl, "merge.windows");
        close_windows(chunk.arrivals.back().second / kUtilizationWindowSeconds,
                      run.fold ? &chunk.egress : nullptr);
      });

  FleetSimResult result = run.finish("merge.windows", [&](obs::health::SampleLog* tail) {
    close_windows(period.windows, tail);
    return overloaded_windows * static_cast<std::uint64_t>(kUtilizationWindowSeconds);
  });

  // Protocol-level per-server load balance (sessions, probe egress), from
  // the integer sums.
  if (config.health != nullptr) {
    for (std::size_t s = 0; s < config.server_count; ++s) {
      const std::span<const std::string> dims = run.dims().server(s);
      config.health->record("server_sessions",
                            static_cast<double>(accepted[s]), dims);
      config.health->record("server_probe_mb",
                            static_cast<double>(probe_bytes[s]) / 1e6, dims);
    }
  }
  return result;
}

}  // namespace swiftest::deploy::detail
