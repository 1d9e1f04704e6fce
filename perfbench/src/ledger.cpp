// The layer ledger of a traced run: isolation drivers for costs that cannot
// be timed in place, the fleet-shaped replay driver, and small reference runs
// for layers the traced workload bypasses. Inputs follow the workloads'
// shapes: 1,400 B probes, 1-4 flows, 8 x 100 Mbps servers.
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/rng.hpp"
#include "deploy/exec.hpp"
#include "netsim/fair_link.hpp"
#include "netsim/link.hpp"
#include "netsim/tcp.hpp"
#include "netsim/testbed.hpp"
#include "obs/health/monitor.hpp"
#include "obs/hub.hpp"
#include "swiftest/fleet.hpp"
#include "swiftest/protocol.hpp"
#include "swiftest/wire_client.hpp"

namespace perfbench {

namespace sw = swiftest;

namespace {

constexpr std::int32_t kProbeBytes = 1400;
constexpr std::size_t kFleetServers = 8;
constexpr double kServerUplinkMbps = 100.0;
constexpr int kReps = 3;

/// Keeps a computed value observable so the timed loop is not folded away.
volatile double g_sink = 0.0;

double ns_per(double seconds, double ops) { return seconds * 1e9 / ops; }

// ------------------------------------------------------------------ netsim

double sched_ns_per_event(int events) {
  return median_of(kReps, [&] {
    sw::netsim::Scheduler sched;
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < events) sched.schedule_in(1, chain);
    };
    sched.schedule_at(0, chain);
    const auto t0 = Clock::now();
    sched.run();
    return ns_per(seconds_since(t0), events);
  });
}

/// Pushes `packets` 1,400 B packets through `link` in batches of 64, with
/// flow ids cycling over `flows`; returns ns per delivered packet.
template <typename LinkT>
double link_ns_per_pkt(sw::netsim::Scheduler& sched, LinkT& link, int packets, int flows) {
  std::uint64_t delivered = 0;
  constexpr int kBatch = 64;
  const auto t0 = Clock::now();
  for (int sent = 0; sent < packets; sent += kBatch) {
    for (int i = 0; i < kBatch; ++i) {
      sw::netsim::Packet pkt;
      pkt.flow_id = static_cast<std::uint64_t>(i % flows);
      pkt.seq = sent + i;
      pkt.size_bytes = kProbeBytes;
      link.send(std::move(pkt), [&delivered](const sw::netsim::Packet&) { ++delivered; });
    }
    sched.run();
  }
  const double s = seconds_since(t0);
  g_sink = g_sink + static_cast<double>(delivered);
  return ns_per(s, static_cast<double>(delivered > 0 ? delivered : 1));
}

double fairlink_ns_per_pkt(int packets) {
  return median_of(kReps, [&] {
    double total = 0.0;
    for (int flows = 1; flows <= 4; ++flows) {
      sw::netsim::Scheduler sched;
      sw::netsim::FairLinkConfig cfg;
      cfg.rate = sw::core::Bandwidth::mbps(10'000);
      cfg.propagation_delay = sw::core::microseconds(10);
      sw::netsim::FairLink link(sched, cfg, sw::core::Rng(7));
      total += link_ns_per_pkt(sched, link, packets / 4, flows);
    }
    return total / 4.0;
  });
}

double fifo_link_ns_per_pkt(int packets) {
  return median_of(kReps, [&] {
    sw::netsim::Scheduler sched;
    sw::netsim::LinkConfig cfg;
    cfg.rate = sw::core::Bandwidth::mbps(10'000);
    cfg.propagation_delay = sw::core::microseconds(10);
    sw::netsim::Link link(sched, cfg, sw::core::Rng(7));
    return link_ns_per_pkt(sched, link, packets, 1);
  });
}

/// Host microseconds per simulated second of one TCP flow at `mbps`.
double tcp_us_per_sim_s(double mbps) {
  return median_of(kReps, [&] {
    sw::netsim::ScenarioConfig cfg;
    cfg.access_rate = sw::core::Bandwidth::mbps(mbps);
    sw::netsim::Scenario scenario(cfg, 1);
    sw::netsim::TcpConfig tcp_cfg;
    tcp_cfg.mss = sw::netsim::suggested_mss(cfg.access_rate);
    sw::netsim::TcpConnection conn(scenario.scheduler(), scenario.server_path(0), tcp_cfg, 1);
    const auto t0 = Clock::now();
    conn.start();
    scenario.scheduler().run_until(sw::core::seconds(1));
    conn.stop();
    const double s = seconds_since(t0);
    g_sink = g_sink + static_cast<double>(conn.stats().app_bytes_delivered);
    return s * 1e6;
  });
}

// ------------------------------------------------------------------ swift wire

void wire_costs(int n, Report& report) {
  const double encode = median_of(kReps, [&] {
    std::uint8_t buf[sw::swift::kProbeDataWireBytes];
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
      sw::swift::serialize_into(
          sw::swift::ProbeData{static_cast<std::uint32_t>(i), static_cast<std::uint64_t>(i) * 7},
          buf);
      acc += buf[sizeof buf - 1];
    }
    const double s = seconds_since(t0);
    g_sink = g_sink + static_cast<double>(acc);
    return ns_per(s, n);
  });
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 256; ++i) {
    frames.push_back(sw::swift::serialize(
        sw::swift::ProbeData{static_cast<std::uint32_t>(i), static_cast<std::uint64_t>(i) * 50}));
  }
  const double parse = median_of(kReps, [&] {
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
      const auto& frame = frames[static_cast<std::size_t>(i) & 255];
      if (sw::swift::peek_type(frame) == sw::swift::MessageType::kProbeData) {
        if (const auto msg = sw::swift::parse_probe_data(frame)) acc += msg->seq;
      }
    }
    const double s = seconds_since(t0);
    g_sink = g_sink + static_cast<double>(acc);
    return ns_per(s, n);
  });
  const int ctrl_n = n / 4;
  const double ctrl = median_of(kReps, [&] {
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < ctrl_n; ++i) {
      const auto bytes = sw::swift::serialize(sw::swift::RateUpdate{
          static_cast<std::uint64_t>(i), static_cast<std::uint32_t>(i), 1});
      if (const auto msg = sw::swift::parse_rate_update(bytes)) acc += msg->rate_kbps;
    }
    const double s = seconds_since(t0);
    g_sink = g_sink + static_cast<double>(acc);
    return ns_per(s, ctrl_n);
  });
  report.ledger_metric("swift.wire.encode_ns", encode, "ns");
  report.ledger_metric("swift.wire.parse_ns", parse, "ns");
  report.ledger_metric("swift.wire.ctrl_roundtrip_ns", ctrl, "ns");
}

// ------------------------------------------------------------------ replay

/// Fleet-shaped single tests rebuilt through the public API: one client
/// slot on an 8 x 100 Mbps testbed, a ServerFleet, and a WireClient forced
/// to one server, as the packet backend runs each arrival. Splits a test's
/// host cost into testbed build, fleet build and scheduler run.
void replay_driver(const Setup& setup, std::uint64_t seed, int tests, SpanLog* spans,
                   Report& report) {
  const Span root(spans, "replay");
  sw::core::Rng rng(sw::core::stream_seed(seed, 0x5eed));
  std::vector<double> testbed_us;
  std::vector<double> fleet_us;
  std::vector<double> test_us;
  double run_s = 0.0;
  double events = 0.0;
  double packets = 0.0;
  sw::swift::ServerStats stats_sum;
  int ok = 0;
  for (int i = 0; i < tests; ++i) {
    const auto& rec = setup.population[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(setup.population.size()) - 1))];
    const auto server = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kFleetServers) - 1));

    sw::netsim::TestbedConfig tb_cfg;
    tb_cfg.fleet.server_count = kFleetServers;
    tb_cfg.fleet.server_uplink = sw::core::Bandwidth::mbps(kServerUplinkMbps);
    sw::netsim::ClientAccessConfig slot;
    slot.access_rate = sw::core::Bandwidth::mbps(1000);
    tb_cfg.clients = {slot};
    sw::swift::ServerConfig server_cfg;
    server_cfg.uplink = sw::core::Bandwidth::mbps(kServerUplinkMbps);

    const auto t0 = Clock::now();
    std::unique_ptr<sw::netsim::Testbed> testbed;
    {
      const Span span(spans, "netsim.testbed_build");
      testbed = std::make_unique<sw::netsim::Testbed>(
          tb_cfg, sw::core::stream_seed(seed, static_cast<std::uint64_t>(i) + 1));
    }
    const auto t1 = Clock::now();
    std::unique_ptr<sw::swift::ServerFleet> fleet;
    {
      const Span span(spans, "swift.fleet_build");
      fleet = std::make_unique<sw::swift::ServerFleet>(*testbed, server_cfg);
    }
    const auto t2 = Clock::now();
    sw::netsim::ClientContext& ctx = testbed->client(0);
    ctx.access_link().set_rate(sw::core::Bandwidth::mbps(rec.bandwidth_mbps));
    sw::swift::SwiftestConfig wc_cfg;
    wc_cfg.tech = rec.tech;
    wc_cfg.server_uplink_mbps = kServerUplinkMbps;
    sw::swift::WireClient wire(wc_cfg, setup.registry, server_cfg);
    wire.attach_fleet(*fleet);
    wire.set_forced_server(server);
    double estimate = -1.0;
    wire.start(ctx, [&estimate](const sw::bts::BtsResult& r) { estimate = r.bandwidth_mbps; });
    const auto t3 = Clock::now();
    {
      const Span span(spans, "netsim.run_until");
      testbed->scheduler().run_until(sw::core::seconds(40));
    }
    const auto t4 = Clock::now();

    const auto us = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double, std::micro>(b - a).count();
    };
    testbed_us.push_back(us(t0, t1));
    fleet_us.push_back(us(t1, t2));
    test_us.push_back(us(t0, t4));
    run_s += std::chrono::duration<double>(t4 - t3).count();
    events += static_cast<double>(testbed->scheduler().events_executed());
    packets += static_cast<double>(ctx.access_link().stats().packets_delivered);
    const sw::swift::ServerStats s = fleet->aggregate_stats();
    stats_sum.requests_accepted += s.requests_accepted;
    stats_sum.rate_updates_applied += s.rate_updates_applied;
    stats_sum.sessions_reaped += s.sessions_reaped;
    stats_sum.probe_bytes_sent += s.probe_bytes_sent;
    if (std::isfinite(estimate) && estimate > 0.0) ++ok;
  }
  report.check(ok == tests, "every replayed fleet-shaped test returns an estimate");
  const double n = tests;
  report.ledger_metric("netsim.testbed_build_us", quantile(testbed_us, 0.5), "us");
  report.ledger_metric("swift.fleet_build_us", quantile(fleet_us, 0.5), "us");
  report.ledger_metric("swift.wire_test_us", quantile(test_us, 0.5), "us");
  report.ledger_metric("netsim.sched.ns_per_event_inplace", ns_per(run_s, events), "ns");
  report.ledger_metric("netsim.events_per_pkt", events / std::max(1.0, packets), "count/pkt");
  report.ledger_metric("swift.probes_per_test",
                       static_cast<double>(stats_sum.probe_bytes_sent) / kProbeBytes / n,
                       "count/test");
  report.ledger_metric("swift.rate_updates_per_test",
                       static_cast<double>(stats_sum.rate_updates_applied) / n, "count/test");
  report.ledger_metric("swift.sessions_reaped_per_test",
                       static_cast<double>(stats_sum.sessions_reaped) / n, "count/test");
  report.ledger_metric("swift.servers_per_test",
                       static_cast<double>(stats_sum.requests_accepted) / n, "count/test");
  report.info("replay.tests", n);
  report.info("replay.events_per_test", events / n);
  report.info("replay.packets_per_test", packets / n);
}

// ------------------------------------------------------------------ deploy / obs

double run_tasks_ns_per_task(std::size_t tasks) {
  return median_of(kReps, [&] {
    std::vector<std::uint8_t> touched(tasks, 0);
    const auto t0 = Clock::now();
    sw::deploy::run_tasks(tasks, 2, [&touched](std::size_t i) { touched[i] = 1; });
    const double s = seconds_since(t0);
    std::size_t sum = 0;
    for (const auto b : touched) sum += b;
    g_sink = g_sink + static_cast<double>(sum);
    return ns_per(s, static_cast<double>(tasks));
  });
}

void obs_sink_costs(int n, Report& report) {
  const double tracer = median_of(kReps, [&] {
    sw::obs::Tracer tr(1u << 16);  // wraps: the steady state of a long run
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
      tr.record(i, sw::obs::Category::kLink, sw::obs::EventKind::kInstant, "link.deliver",
                static_cast<std::uint64_t>(i), 1400.0);
    }
    const double s = seconds_since(t0);
    g_sink = g_sink + static_cast<double>(tr.dropped());
    return ns_per(s, n);
  });
  const int pairs = n / 8;
  const double span = median_of(kReps, [&] {
    sw::obs::Hub hub;
    sw::core::SimTime now = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < pairs; ++i) {
      if (hub.spans.size() + 2 > hub.spans.capacity()) hub.spans.clear();
      const auto id = hub.spans.begin(now, sw::obs::Category::kProtocol, "swiftest.probe");
      hub.spans.attr_f64(id, "rate_mbps", 100.0);
      hub.spans.end(id, now + 1000);
      now += 1000;
    }
    const double s = seconds_since(t0);
    g_sink = g_sink + static_cast<double>(hub.spans.size());
    return ns_per(s, pairs);
  });
  const double inc = median_of(kReps, [&] {
    sw::obs::MetricsRegistry metrics;
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) metrics.counter("fleet.tests_started").inc();
    const double s = seconds_since(t0);
    g_sink = g_sink + static_cast<double>(metrics.counter("fleet.tests_started").value());
    return ns_per(s, n);
  });
  const double observe = median_of(kReps, [&] {
    sw::obs::MetricsRegistry metrics;
    auto& hist = metrics.histogram("link.queue_delay_ms", {0.1, 0.5, 1, 2, 5, 10, 20, 50, 100});
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) hist.observe(static_cast<double>(i % 128) * 0.5);
    const double s = seconds_since(t0);
    g_sink = g_sink + hist.sum();
    return ns_per(s, n);
  });
  const int mirrors = std::max(1, n / 2'000);
  const double mirror = median_of(kReps, [&] {
    const sw::obs::Hub like;
    const auto t0 = Clock::now();
    for (int i = 0; i < mirrors; ++i) {
      auto hub = sw::obs::Hub::mirror_of(like);
      g_sink = g_sink + static_cast<double>(hub->tracer.capacity());
    }
    return seconds_since(t0) * 1e6 / mirrors;
  });
  const int samples = n / 8;
  const double health = median_of(kReps, [&] {
    sw::obs::health::HealthMonitor monitor;
    const std::vector<std::string> dims = {"tech:4g", "isp:1", "server:3"};
    const auto t0 = Clock::now();
    for (int i = 0; i < samples; ++i) {
      sw::obs::health::TestSample sample;
      sample.duration_s = 1.0 + (i % 7) * 0.1;
      sample.data_mb = 10.0 + (i % 13);
      sample.deviation = (i % 11) * 0.01;
      sample.dimensions = dims;
      monitor.record_test(sample);
    }
    const double s = seconds_since(t0);
    g_sink = g_sink + static_cast<double>(monitor.snapshot().tests);
    return ns_per(s, samples);
  });
  report.ledger_metric("obs.tracer.ns_per_record", tracer, "ns");
  report.ledger_metric("obs.span.ns_per_pair", span, "ns");
  report.ledger_metric("obs.metrics.ns_per_inc", inc, "ns");
  report.ledger_metric("obs.metrics.ns_per_observe", observe, "ns");
  report.ledger_metric("obs.hub_mirror_us", mirror, "us");
  report.ledger_metric("obs.health.ns_per_sample", health, "ns");
}

}  // namespace

void run_ledger(const Options& o, const Setup& setup, SpanLog* spans, Report& report) {
  const int scale = o.tiny ? 10 : 1;
  {
    const Span span(spans, "ledger.isolation");
    report.ledger_metric("netsim.sched.ns_per_event", sched_ns_per_event(400'000 / scale), "ns");
    report.ledger_metric("netsim.fairlink.ns_per_pkt", fairlink_ns_per_pkt(200'000 / scale),
                         "ns");
    report.ledger_metric("netsim.link.ns_per_pkt", fifo_link_ns_per_pkt(200'000 / scale), "ns");
    for (const int mbps : {50, 300, 1000}) {
      report.ledger_metric("netsim.tcp.us_per_sim_s." + std::to_string(mbps),
                           tcp_us_per_sim_s(mbps), "us");
    }
    wire_costs(2'000'000 / scale, report);
    report.ledger_metric("deploy.run_tasks.ns_per_task",
                         run_tasks_ns_per_task(200'000 / static_cast<std::size_t>(scale)), "ns");
    obs_sink_costs(1'000'000 / scale, report);
  }
  replay_driver(setup, o.seed, o.tiny ? 3 : 24, spans, report);

  // Reference runs, small and seeded, for layers the workload bypassed.
  if (!report.has("bts.fast.run_ms")) {
    const Span span(spans, "ledger.reference_bts");
    const auto runs = run_bts_pass(draw_users(o.seed, 1), setup.registry, spans);
    report_bts_layers(runs, true, report);
  }
  if (!report.has("obs.trace.retained") || !report.has("netsim.events_per_test")) {
    const Span span(spans, "ledger.reference_packet_fleet");
    FleetShape shape = fleet_shape("fleet_packet_obs", o.tiny);
    shape.tests_per_day = o.tiny ? 16.0 : 120.0;
    const FleetPass with_obs = run_fleet_pass(setup, shape, o.seed, o.out_dir, true, spans);
    report_fleet_layers(with_obs, shape, true, report);
    if (!report.has("obs.overhead_ratio")) {
      FleetShape plain = shape;
      plain.obs = false;
      const FleetPass without = run_fleet_pass(setup, plain, o.seed, "", false, nullptr);
      const FleetPass timed = run_fleet_pass(setup, shape, o.seed, o.out_dir, false, nullptr);
      report.ledger_metric("obs.overhead_ratio",
                           (timed.wall_s / static_cast<double>(timed.tests)) /
                               (without.wall_s / static_cast<double>(without.tests)),
                           "ratio");
    }
  }
  if (!report.has("deploy.replay_numeric_ms")) {
    const Span span(spans, "ledger.reference_analytic_fleet");
    FleetShape shape = fleet_shape("fleet_analytic", o.tiny);
    shape.days = 1;
    const FleetPass pass = run_fleet_pass(setup, shape, o.seed, "", true, spans);
    report_fleet_layers(pass, shape, true, report);
  }
  report.info("ledger.sink", g_sink);
}

}  // namespace perfbench
