// End-to-end observability: a full Swiftest wire test over a simulated
// scenario with a Hub attached, checked for the expected probing-stage
// event sequence and for bit-reproducible traces across identical runs.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "netsim/scenario.hpp"
#include "obs/export.hpp"
#include "obs/hub.hpp"
#include "swiftest/wire_client.hpp"

namespace swiftest {
namespace {

/// Runs one wire test with `hub` attached; a non-empty `sink` then
/// overrides the scheduler's trace sink (Scheduler::set_tracer).
bts::BtsResult run_traced(obs::Hub& hub, std::uint64_t seed,
                          std::optional<obs::Tracer*> sink = std::nullopt) {
  netsim::ScenarioConfig net;
  net.access_rate = core::Bandwidth::mbps(50);
  netsim::Scenario scenario(net, seed);
  scenario.scheduler().set_obs(&hub);
  if (sink) scenario.scheduler().set_tracer(*sink);
  swift::SwiftestConfig cfg;
  swift::ModelRegistry registry;
  swift::WireClient client(cfg, registry);
  return client.run(scenario);
}

std::vector<std::string> names_in_order(const obs::Hub& hub) {
  std::vector<std::string> names;
  for (const auto& event : hub.tracer.events()) names.emplace_back(event.name);
  return names;
}

std::size_t index_of(const std::vector<std::string>& names, const std::string& name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  return names.size();
}

TEST(ObsIntegration, SwiftestRunEmitsProbingStageSequence) {
  obs::Hub hub;
  // Protocol-only: sparse stage events, so the ring can never wrap and the
  // full lifecycle stays in the buffer.
  hub.tracer.set_category_mask(static_cast<std::uint32_t>(obs::Category::kProtocol));
  const bts::BtsResult result = run_traced(hub, 42);
  EXPECT_GT(result.bandwidth_mbps, 0.0);
  EXPECT_EQ(hub.tracer.dropped(), 0u);

  const auto names = names_in_order(hub);
  const std::size_t start = index_of(names, "probe.start");
  const std::size_t session_start = index_of(names, "server.session_start");
  const std::size_t sample = index_of(names, "probe.sample_mbps");
  const std::size_t finalize = index_of(names, "probe.finalize");
  const std::size_t session_complete = index_of(names, "server.session_complete");
  const std::size_t complete = index_of(names, "probe.complete");

  // Every stage fired...
  ASSERT_LT(start, names.size());
  ASSERT_LT(session_start, names.size());
  ASSERT_LT(sample, names.size());
  ASSERT_LT(finalize, names.size());
  ASSERT_LT(session_complete, names.size());
  ASSERT_LT(complete, names.size());
  // ...in lifecycle order: request precedes session, sampling precedes
  // teardown, and the client's completion is last.
  EXPECT_LT(start, session_start);
  EXPECT_LT(session_start, sample);
  EXPECT_LT(sample, finalize);
  EXPECT_LT(finalize, session_complete);
  EXPECT_LT(session_complete, complete);

  // Stage events share the test's nonce.
  const auto events = hub.tracer.events();
  EXPECT_EQ(events[start].id, events[complete].id);
  EXPECT_NE(events[start].id, 0u);

  // The converged estimate rides on the completion event.
  EXPECT_DOUBLE_EQ(events[complete].value, result.bandwidth_mbps);
}

TEST(ObsIntegration, AllCategoriesCoverSchedulerLinkAndProtocol) {
  obs::Hub hub;
  run_traced(hub, 7);
  bool saw_scheduler = false;
  bool saw_link = false;
  bool saw_protocol = false;
  for (const auto& event : hub.tracer.events()) {
    saw_scheduler |= event.category == obs::Category::kScheduler;
    saw_link |= event.category == obs::Category::kLink;
    saw_protocol |= event.category == obs::Category::kProtocol;
  }
  EXPECT_TRUE(saw_scheduler);
  EXPECT_TRUE(saw_link);
  EXPECT_TRUE(saw_protocol);

  const auto snap = hub.metrics.snapshot();
  EXPECT_GT(snap.counters.at("scheduler.events_fired"), 0u);
  EXPECT_GT(snap.counters.at("probe.tests_completed"), 0u);
  EXPECT_EQ(snap.histograms.at("probe.test_seconds").count, 1u);
}

TEST(ObsIntegration, SameSeedRunsProduceByteIdenticalExports) {
  obs::Hub first;
  obs::Hub second;
  run_traced(first, 1234);
  run_traced(second, 1234);

  std::ostringstream trace_a;
  std::ostringstream trace_b;
  obs::write_chrome_trace(first.tracer, trace_a);
  obs::write_chrome_trace(second.tracer, trace_b);
  EXPECT_EQ(trace_a.str(), trace_b.str());

  std::ostringstream metrics_a;
  std::ostringstream metrics_b;
  obs::write_metrics_json(first.metrics.snapshot(), metrics_a);
  obs::write_metrics_json(second.metrics.snapshot(), metrics_b);
  EXPECT_EQ(metrics_a.str(), metrics_b.str());
}

TEST(ObsIntegration, SetTracerRoutesTraceEventsAndLeavesMetricsOnTheHub) {
  // Span begin/end markers mirror into their Hub's own tracer, not the
  // scheduler's sink, so every hub here turns that mirror off (as the packet
  // fleet's per-test hubs do).
  obs::Hub reference;
  obs::Hub routed;
  obs::Hub silenced;
  for (obs::Hub* hub : {&reference, &routed, &silenced}) {
    hub->spans.set_sinks(nullptr, &hub->metrics);
  }
  run_traced(reference, 99);
  std::ostringstream reference_trace;
  obs::write_trace_jsonl(reference.tracer, reference_trace);
  std::ostringstream reference_metrics;
  obs::write_metrics_json(reference.metrics.snapshot(), reference_metrics);

  // Another tracer receives every event, sched.fire included; the Hub's own
  // ring stays empty and its metrics are unchanged.
  obs::Tracer sink;
  run_traced(routed, 99, &sink);
  std::ostringstream routed_trace;
  obs::write_trace_jsonl(sink, routed_trace);
  EXPECT_EQ(routed_trace.str(), reference_trace.str());
  EXPECT_EQ(routed.tracer.size(), 0u);
  std::ostringstream routed_metrics;
  obs::write_metrics_json(routed.metrics.snapshot(), routed_metrics);
  EXPECT_EQ(routed_metrics.str(), reference_metrics.str());

  // A null sink records nothing and never allocates a ring.
  run_traced(silenced, 99, nullptr);
  EXPECT_EQ(silenced.tracer.size(), 0u);
  EXPECT_EQ(silenced.tracer.approx_bytes(), 0u);
  std::ostringstream silenced_metrics;
  obs::write_metrics_json(silenced.metrics.snapshot(), silenced_metrics);
  EXPECT_EQ(silenced_metrics.str(), reference_metrics.str());
}

TEST(ObsIntegration, DetachedHubLeavesRunUnchanged) {
  // A run with no hub must produce the same estimate as a traced run with
  // the same seed: instrumentation must not perturb the simulation.
  obs::Hub hub;
  const bts::BtsResult traced = run_traced(hub, 77);

  netsim::ScenarioConfig net;
  net.access_rate = core::Bandwidth::mbps(50);
  netsim::Scenario scenario(net, 77);
  swift::SwiftestConfig cfg;
  swift::ModelRegistry registry;
  swift::WireClient client(cfg, registry);
  const bts::BtsResult plain = client.run(scenario);

  EXPECT_DOUBLE_EQ(traced.bandwidth_mbps, plain.bandwidth_mbps);
  EXPECT_EQ(traced.probe_duration, plain.probe_duration);
}

}  // namespace
}  // namespace swiftest
