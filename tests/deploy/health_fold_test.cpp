// The per-cell health fold (obs/health/sample_log.hpp) driven by the
// work-stealing pool, as simulate_fleet drives it: at any lane count it must
// reproduce, byte for byte, the report of one HealthMonitor fed the same
// samples serially — empty and duplicated dimension keys, egress samples,
// arrivals straddling rate windows, and prior monitor state included.
#include "obs/health/sample_log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "obs/health/report.hpp"

namespace swiftest::obs::health {
namespace {

std::string render(const HealthMonitor& monitor) {
  std::ostringstream out;
  write_health_json(monitor.snapshot(), {}, nullptr, out);
  return out.str();
}

/// Chunk logs plus a serial reference monitor fed the identical stream.
struct Stream {
  std::vector<std::unique_ptr<SampleLog>> logs;
  HealthMonitor reference;

  SampleLog& add_log() {
    logs.push_back(std::make_unique<SampleLog>());
    return *logs.back();
  }

  void test(SampleLog& log, const TestSample& sample) {
    ASSERT_LE(sample.dimensions.size(), SampleLog::kMaxDims);
    SampleLog::TestEntry e;
    e.duration_s = sample.duration_s;
    e.data_mb = sample.data_mb;
    e.deviation = sample.deviation;
    for (std::size_t k = 0; k < sample.dimensions.size(); ++k) {
      e.dims[k] = log.intern(sample.dimensions[k]);
    }
    log.record_test(e);
    reference.record_test(sample);
  }

  void egress(SampleLog& log, std::uint32_t server, double util) {
    log.record_egress_utilization(server, util);
    reference.record_egress_utilization(server, util);
  }

  [[nodiscard]] std::vector<const SampleLog*> pointers() const {
    std::vector<const SampleLog*> out;
    for (const auto& log : logs) out.push_back(log.get());
    return out;
  }
};

/// Folds `logs` into `monitor` on `jobs` workers, one task per lane.
void fold(const std::vector<const SampleLog*>& logs, HealthMonitor& monitor,
          std::size_t jobs) {
  const LogFold folder(logs, monitor, jobs);
  EXPECT_LE(folder.lanes(), std::max<std::size_t>(1, jobs));
  exec::run_tasks(folder.lanes(), jobs,
                  [&](std::size_t lane) { folder.run_lane(lane); });
}

/// Four chunk logs (one empty) of tests, then a tail of egress samples.
void fill(Stream& s) {
  std::mt19937_64 rng(2022);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::vector<std::string> techs = {"tech:4g", "tech:5g", "tech:wifi5"};
  const std::vector<std::string> isps = {"isp:1", "isp:2"};
  double t = 3.0;
  for (const std::size_t tests : {300u, 0u, 41u, 517u}) {
    SampleLog& log = s.add_log();
    for (std::size_t i = 0; i < tests; ++i) {
      // 3.7 s apart on average: consecutive arrivals straddle 10 s windows,
      // and some land exactly on a window edge.
      t += (i % 9 == 0) ? 10.0 - std::fmod(t, 10.0) : 3.7 * unit(rng);
      log.note_arrival(t);
      s.reference.note_arrival(t);

      TestSample sample;
      sample.duration_s = rng() % 4 == 0 ? 2.0 : 1.0;  // heavy ties
      sample.data_mb = 40.0 * unit(rng);
      sample.deviation = i % 3 == 0 ? 0.0 : 0.2 * unit(rng);
      const std::string& tech = techs[rng() % techs.size()];
      std::vector<std::string> dims = {tech, isps[rng() % isps.size()],
                                       "server:" + std::to_string(rng() % 6)};
      if (i % 7 == 0) dims[1].clear();     // empty key: skipped
      if (i % 5 == 0) dims.push_back(tech);  // duplicated key: fed twice
      sample.dimensions = dims;
      s.test(log, sample);
    }
    // A few egress samples inside a chunk log as well.
    s.egress(log, 1, 100.0 * unit(rng));
  }
  SampleLog& tail = s.add_log();
  for (std::uint32_t w = 0; w < 400; ++w) {
    for (std::uint32_t server = 0; server < 5; ++server) {
      if ((w + server) % 3 != 0) s.egress(tail, server, 100.0 * unit(rng));
    }
  }
}

TEST(HealthFold, MatchesSerialMonitorAtAnyJobCount) {
  Stream stream;
  // Prior state: the fold appends to cells that already hold values.
  TestSample prior;
  prior.duration_s = 1.5;
  const std::vector<std::string> prior_dims = {"tech:4g"};
  prior.dimensions = prior_dims;
  stream.reference.record_test(prior);
  fill(stream);
  const std::string expected = render(stream.reference);
  ASSERT_NE(expected.find("\"server:4\""), std::string::npos);

  for (const std::size_t jobs : {1u, 2u, 4u}) {
    HealthMonitor folded;
    folded.record_test(prior);
    fold(stream.pointers(), folded, jobs);
    EXPECT_EQ(render(folded), expected) << "jobs=" << jobs;
  }
}

TEST(HealthFold, UnorderedArrivalsFallBackToStableMerge) {
  // Logs whose concatenation is out of time order still feed the windowed
  // rate one time-ordered stream.
  SampleLog late;
  SampleLog early;
  for (const double t : {25.0, 31.0, 31.0, 48.5}) late.note_arrival(t);
  for (const double t : {2.0, 12.0, 31.0, 33.0}) early.note_arrival(t);

  HealthMonitor reference;
  for (const double t : {2.0, 12.0, 25.0, 31.0, 31.0, 31.0, 33.0, 48.5}) {
    reference.note_arrival(t);
  }
  const std::vector<const SampleLog*> logs = {&late, &early};
  for (const std::size_t jobs : {1u, 4u}) {
    HealthMonitor folded;
    fold(logs, folded, jobs);
    EXPECT_EQ(render(folded), render(reference)) << "jobs=" << jobs;
  }
}

TEST(HealthFold, EmptyLogsFoldToAnEmptyReport) {
  const SampleLog empty;
  const std::string expected = render(HealthMonitor{});
  for (const std::vector<const SampleLog*>& logs :
       {std::vector<const SampleLog*>{}, std::vector<const SampleLog*>{&empty, &empty}}) {
    HealthMonitor folded;
    fold(logs, folded, 4);
    EXPECT_EQ(render(folded), expected) << logs.size() << " logs";
  }
}

}  // namespace
}  // namespace swiftest::obs::health
