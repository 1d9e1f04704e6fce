// The per-cell streaming health fold (obs/health/sample_log.hpp) on
// exec::run_stream, as simulate_fleet drives it: at any lane count it must
// reproduce, byte for byte, the report of one HealthMonitor fed the same
// samples serially — empty and duplicated dimension slots, egress samples,
// arrivals straddling rate windows, logs and egress tails straddling fold
// blocks, and prior monitor state included — and it must refuse a table
// that repeats a key and a log recorded against another table.
#include "obs/health/sample_log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
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

/// Chunk logs on one shared dimension table, plus a serial reference monitor
/// fed the identical stream.
struct Stream {
  explicit Stream(std::vector<std::string> keys) : table(std::move(keys)) {}

  std::vector<std::string> table;  // every log's ids index it
  std::vector<std::unique_ptr<SampleLog>> logs;
  HealthMonitor reference;

  SampleLog& add_log() {
    logs.push_back(std::make_unique<SampleLog>(table));
    return *logs.back();
  }

  /// The id of `key` in the table; the empty key is an empty slot.
  [[nodiscard]] SampleLog::DimId id(const std::string& key) const {
    if (key.empty()) return SampleLog::kNoDim;
    const auto it = std::find(table.begin(), table.end(), key);
    EXPECT_NE(it, table.end()) << key;
    return static_cast<SampleLog::DimId>(it - table.begin());
  }

  void test(SampleLog& log, const TestSample& sample) {
    ASSERT_LE(sample.dimensions.size(), SampleLog::kMaxDims);
    SampleLog::TestEntry e;
    e.duration_s = sample.duration_s;
    e.data_mb = sample.data_mb;
    e.deviation = sample.deviation;
    for (std::size_t k = 0; k < sample.dimensions.size(); ++k) {
      e.dims[k] = id(sample.dimensions[k]);
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

/// Folds `logs` through the streaming form on exec::run_stream, the way
/// simulate_fleet does: each log is committed in order while lanes fold
/// earlier ones. `table` is the dimension table the logs share.
void stream_fold(const std::vector<const SampleLog*>& logs, HealthMonitor& monitor,
                 std::size_t jobs, std::span<const std::string> table = {}) {
  LogFold folder(monitor, jobs, table);
  std::vector<LogFold::Committed> slots(exec::stream_ring(jobs));
  exec::StreamStages stages;
  stages.draw = [&](std::size_t i) { return i < logs.size(); };
  stages.run = [](std::size_t) {};
  stages.commit = [&](std::size_t i) { folder.commit(*logs[i], slots[i % slots.size()]); };
  stages.lanes = folder.lanes();
  stages.fold = [&](std::size_t lane, std::size_t i) {
    folder.fold(lane, slots[i % slots.size()]);
  };
  exec::run_stream(jobs, stages);
  folder.finish();
}

/// The table fill() records its tests against.
std::vector<std::string> fill_keys() {
  std::vector<std::string> keys = {"tech:4g", "tech:5g", "tech:wifi5", "isp:1", "isp:2"};
  for (int s = 0; s < 6; ++s) keys.push_back("server:" + std::to_string(s));
  return keys;
}

/// Chunk logs of `log_tests` tests each (plus one egress sample apiece),
/// then a tail of egress samples over `windows` windows of five servers.
void fill(Stream& s, std::span<const std::size_t> log_tests, std::uint32_t windows) {
  std::mt19937_64 rng(2022);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::vector<std::string> techs = {"tech:4g", "tech:5g", "tech:wifi5"};
  const std::vector<std::string> isps = {"isp:1", "isp:2"};
  double t = 3.0;
  for (const std::size_t tests : log_tests) {
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
  for (std::uint32_t w = 0; w < windows; ++w) {
    for (std::uint32_t server = 0; server < 5; ++server) {
      if ((w + server) % 3 != 0) s.egress(tail, server, 100.0 * unit(rng));
    }
  }
}

TEST(HealthFold, MatchesSerialMonitorAtAnyJobCount) {
  constexpr std::size_t kBlock = LogFold::kFoldBlock;
  struct Case {
    const char* name;
    std::vector<std::size_t> log_tests;
    std::uint32_t windows;
  };
  const Case cases[] = {
      // Four chunk logs (one empty), then a tail of egress samples.
      {"small", {300, 0, 41, 517}, 400},
      // Several blocks of tests whose logs end just short of, just past and
      // well past a block boundary.
      {"blocks", {kBlock - 1, 2, kBlock + 3, 2 * kBlock + 17}, 400},
      // An egress tail of about 1.6 blocks (~6.7k samples).
      {"egress-tail", {300, 41}, 2'000},
  };
  for (const Case& c : cases) {
    Stream stream(fill_keys());
    // Prior state: the fold appends to cells that already hold values.
    TestSample prior;
    prior.duration_s = 1.5;
    const std::vector<std::string> prior_dims = {"tech:4g"};
    prior.dimensions = prior_dims;
    stream.reference.record_test(prior);
    fill(stream, c.log_tests, c.windows);
    const std::string expected = render(stream.reference);
    ASSERT_NE(expected.find("\"server:4\""), std::string::npos) << c.name;

    for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
      HealthMonitor folded;
      folded.record_test(prior);
      stream_fold(stream.pointers(), folded, jobs, stream.table);
      EXPECT_EQ(render(folded), expected) << c.name << " jobs=" << jobs;
    }
  }
}

TEST(HealthFold, EmptyLogsFoldToAnEmptyReport) {
  const SampleLog empty;
  const std::string expected = render(HealthMonitor{});
  for (const std::vector<const SampleLog*>& logs :
       {std::vector<const SampleLog*>{}, std::vector<const SampleLog*>{&empty, &empty}}) {
    HealthMonitor folded;
    stream_fold(logs, folded, 4);
    EXPECT_EQ(render(folded), expected) << logs.size() << " logs";
  }
}

TEST(HealthFold, StreamingFoldMatchesTheSerialMonitor) {
  constexpr std::size_t kBlock = LogFold::kFoldBlock;
  const std::vector<std::size_t> log_tests = {300, 0, 41, kBlock + 3, 517, 2, 90};
  Stream stream(fill_keys());
  fill(stream, log_tests, 900);
  const std::string expected = render(stream.reference);
  for (const std::size_t jobs : {1u, 2u, 4u}) {
    HealthMonitor folded;
    stream_fold(stream.pointers(), folded, jobs, stream.table);
    EXPECT_EQ(render(folded), expected) << "jobs=" << jobs;
  }
}

TEST(HealthFold, SharedTableResolvesEachKeyOnceAndCreatesNoEmptyCell) {
  // One table for every log, with keys no test ever uses: those must not
  // appear in the report.
  const std::vector<std::string> table = {"tech:4g", "tech:5g", "isp:1", "isp:2",
                                          "server:0", "server:1", "server:99"};
  std::vector<std::unique_ptr<SampleLog>> logs;
  HealthMonitor reference;
  std::mt19937_64 rng(7);
  double t = 0.0;
  for (std::size_t l = 0; l < 40; ++l) {
    logs.push_back(std::make_unique<SampleLog>(table));
    SampleLog& log = *logs.back();
    for (std::size_t i = 0; i < 37; ++i) {
      t += static_cast<double>(rng() % 5);
      log.note_arrival(t);
      reference.note_arrival(t);
      SampleLog::TestEntry e;
      e.duration_s = static_cast<double>(rng() % 3);
      e.data_mb = static_cast<double>(rng() % 1000) / 10.0;
      e.deviation = static_cast<double>(rng() % 100) / 500.0;
      e.dims = {static_cast<SampleLog::DimId>(rng() % 2),
                static_cast<SampleLog::DimId>(2 + rng() % 2),
                static_cast<SampleLog::DimId>(4 + rng() % 2), SampleLog::kNoDim};
      log.record_test(e);
      TestSample sample;
      sample.duration_s = e.duration_s;
      sample.data_mb = e.data_mb;
      sample.deviation = e.deviation;
      const std::vector<std::string> dims = {table[e.dims[0]], table[e.dims[1]],
                                             table[e.dims[2]]};
      sample.dimensions = dims;
      reference.record_test(sample);
    }
    log.record_egress_utilization(static_cast<std::uint32_t>(l % 3), 10.0 + l);
    reference.record_egress_utilization(l % 3, 10.0 + l);
  }
  const std::string expected = render(reference);
  ASSERT_EQ(expected.find("server:99"), std::string::npos);
  std::vector<const SampleLog*> pointers;
  for (const auto& log : logs) pointers.push_back(log.get());
  for (const std::size_t jobs : {1u, 3u}) {
    HealthMonitor folded;
    stream_fold(pointers, folded, jobs, table);
    EXPECT_EQ(render(folded), expected) << "jobs=" << jobs;
  }
}

TEST(HealthFold, StreamingCommitRejectsArrivalsOutOfOrder) {
  SampleLog first;
  SampleLog late;
  for (const double t : {5.0, 6.0}) first.note_arrival(t);
  late.note_arrival(4.0);
  late.record_test(SampleLog::TestEntry{});

  HealthMonitor monitor;
  LogFold folder(monitor, 2);
  LogFold::Committed committed;
  folder.commit(first, committed);
  EXPECT_THROW(folder.commit(late, committed), std::invalid_argument);
  folder.finish();
  // The rejected log noted nothing: no arrival, no test.
  HealthMonitor reference;
  for (const double t : {5.0, 6.0}) reference.note_arrival(t);
  EXPECT_EQ(render(monitor), render(reference));
}

TEST(HealthFold, RejectsATableThatRepeatsAKey) {
  // The key's two ids would feed one cell from two lanes.
  HealthMonitor monitor;
  const std::vector<std::string> repeated = {"tech:4g", "isp:1", "tech:4g"};
  EXPECT_THROW(LogFold(monitor, 2, repeated), std::invalid_argument);
  const std::vector<std::string> distinct = {"tech:4g", "isp:1", "tech:5g"};
  EXPECT_NO_THROW(LogFold(monitor, 2, distinct));
}

TEST(HealthFold, CommitRejectsTestsAgainstAForeignTable) {
  const std::vector<std::string> table = {"tech:4g", "isp:1"};
  const std::vector<std::string> copy = table;  // the same keys, another table
  SampleLog first(table);
  first.note_arrival(1.0);
  SampleLog::TestEntry e;
  e.duration_s = 2.0;
  e.dims = {0, 1, SampleLog::kNoDim, SampleLog::kNoDim};
  first.record_test(e);
  SampleLog foreign(copy);
  foreign.note_arrival(3.0);
  e.duration_s = 4.0;
  foreign.record_test(e);

  HealthMonitor monitor;
  LogFold folder(monitor, 2, table);
  LogFold::Committed committed;
  folder.commit(first, committed);
  for (std::size_t lane = 0; lane < folder.lanes(); ++lane) folder.fold(lane, committed);
  const std::string before = render(monitor);
  LogFold::Committed rejected;
  EXPECT_THROW(folder.commit(foreign, rejected), std::invalid_argument);
  EXPECT_EQ(render(monitor), before);
  folder.finish();

  // The rejected log noted nothing: no arrival, no test, no cell.
  HealthMonitor reference;
  reference.note_arrival(1.0);
  TestSample sample;
  sample.duration_s = 2.0;
  sample.dimensions = table;
  reference.record_test(sample);
  EXPECT_EQ(render(monitor), render(reference));
}

}  // namespace
}  // namespace swiftest::obs::health
