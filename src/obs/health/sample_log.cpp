#include "obs/health/sample_log.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace swiftest::obs::health {

void SampleLog::record_test(const TestEntry& entry) {
  for (const DimId d : entry.dims) {
    if (d != kNoDim && d >= dims_.size()) {
      throw std::out_of_range("SampleLog: dimension id outside the table");
    }
  }
  if (admit_sample()) tests_.push_back(entry);
}

void SampleLog::record_egress_utilization(std::uint32_t server, double util_pct) {
  if (admit_sample()) egress_.push_back(EgressEntry{server, util_pct});
}

namespace {

constexpr const char* kTestMetricNames[] = {kMetricDuration, kMetricDataUsage,
                                            kMetricDeviation};

}  // namespace

LogFold::LogFold(HealthMonitor& monitor, std::size_t lanes,
                 std::span<const std::string> dimensions)
    : monitor_(&monitor),
      lane_load_(std::max<std::size_t>(1, lanes), 0),
      table_(dimensions),
      test_cells_(table_.size(), {kNoCell, kNoCell, kNoCell}),
      last_arrival_(-std::numeric_limits<double>::infinity()),
      lanes_(lane_load_.size()) {
  std::vector<std::string_view> keys(table_.begin(), table_.end());
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    throw std::invalid_argument("LogFold: the dimension table repeats a key");
  }
}

std::uint32_t LogFold::resolve(std::uint32_t& slot, std::string_view metric,
                               std::string_view key, std::uint64_t uses,
                               Committed& out) {
  if (slot == kNoCell) {
    slot = cells_++;
    out.born.push_back({slot, &monitor_->cell(metric, key), 0});
    born_uses_.push_back(uses);
  }
  return slot;
}

void LogFold::commit(const SampleLog& log, Committed& out) {
  const std::span<const std::string> dims = log.dimensions();
  if (!log.tests().empty() &&
      (dims.data() != table_.data() || dims.size() != table_.size())) {
    throw std::invalid_argument("LogFold: tests recorded against another dimension table");
  }
  double last = last_arrival_;
  for (const double t : log.arrival_times()) {
    if (t < last) {
      throw std::invalid_argument("LogFold: arrival precedes the last one committed");
    }
    last = t;
  }
  for (const double t : log.arrival_times()) monitor_->note_arrival(t);
  last_arrival_ = last;
  monitor_->add_tests(log.tests().size());

  out.log = &log;
  out.born.clear();
  born_uses_.clear();

  uses_.assign(dims.size(), 0);
  for (const SampleLog::TestEntry& e : log.tests()) {
    for (const SampleLog::DimId d : e.dims) {
      if (d != SampleLog::kNoDim) ++uses_[d];
    }
  }
  for (std::size_t i = 0; i < 3; ++i) {
    out.test_all[i] =
        log.tests().empty()
            ? test_all_[i]
            : resolve(test_all_[i], kTestMetricNames[i], "all", log.tests().size(), out);
    out.by_dim[i].assign(dims.size(), kNoCell);
  }
  for (std::size_t d = 0; d < dims.size(); ++d) {
    if (uses_[d] == 0) continue;
    for (std::size_t i = 0; i < 3; ++i) {
      out.by_dim[i][d] =
          resolve(test_cells_[d][i], kTestMetricNames[i], table_[d], uses_[d], out);
    }
  }

  uses_.clear();
  for (const SampleLog::EgressEntry& e : log.egress()) {
    if (e.server >= uses_.size()) uses_.resize(e.server + 1, 0);
    ++uses_[e.server];
  }
  out.egress_all = log.egress().empty()
                       ? egress_all_
                       : resolve(egress_all_, kMetricEgressUtil, "all",
                                 log.egress().size(), out);
  if (egress_cells_.size() < uses_.size()) egress_cells_.resize(uses_.size(), kNoCell);
  out.by_server.assign(uses_.size(), kNoCell);
  for (std::size_t s = 0; s < uses_.size(); ++s) {
    if (uses_[s] == 0) continue;
    ServerKeyBuffer key;
    out.by_server[s] = resolve(egress_cells_[s], kMetricEgressUtil,
                               server_dimension(s, key), uses_[s], out);
  }

  // Longest-processing-time dealing of the new cells, heaviest first, onto
  // the lane with the least estimated load (ties to the lower index). A
  // cell's uses in the log that first feeds it stand in for its rate.
  std::vector<std::size_t> order(out.born.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return born_uses_[a] > born_uses_[b];
  });
  for (const std::size_t b : order) {
    const auto lane = static_cast<std::size_t>(
        std::min_element(lane_load_.begin(), lane_load_.end()) - lane_load_.begin());
    out.born[b].lane = static_cast<std::uint32_t>(lane);
    lane_load_[lane] += born_uses_[b];
  }
}

void LogFold::finish() {
  for (Lane& state : lanes_) drain(state);
}

void LogFold::drain(Lane& state) {
  for (const std::uint32_t c : state.owned) {
    state.aggregate[c]->observe_all(state.pending[c]);
    state.pending[c].clear();
  }
  state.records = 0;
}

void LogFold::fold(std::size_t lane, const Committed& committed) {
  Lane& state = lanes_[lane];
  // Each of this lane's cells collects its values for up to kFoldBlock
  // consecutive records, in commit order, then drains them through one
  // observe_all: a cell's pending values are always the next stretch of its
  // serial sequence, so the block size never changes what it is fed.
  for (const Committed::Born& b : committed.born) {
    if (b.lane != lane) continue;
    if (state.aggregate.size() <= b.cell) {
      state.aggregate.resize(b.cell + 1, nullptr);
      state.pending.resize(b.cell + 1);
    }
    state.aggregate[b.cell] = b.aggregate;
    state.owned.push_back(b.cell);
  }
  const auto next_record = [&] {
    if (++state.records == kFoldBlock) drain(state);
  };
  // This lane's buffer for a cell; null for a cell another lane owns or
  // none is fed.
  const auto mine = [&](std::uint32_t c) -> std::vector<double>* {
    return c < state.aggregate.size() && state.aggregate[c] != nullptr ? &state.pending[c]
                                                                        : nullptr;
  };
  std::array<std::vector<double>*, 3> all{};
  for (std::size_t i = 0; i < 3; ++i) all[i] = mine(committed.test_all[i]);
  std::vector<double>* const egress_all = mine(committed.egress_all);

  const SampleLog& log = *committed.log;
  std::vector<std::vector<double>*>& own = state.view;
  const std::size_t dims = committed.by_dim[0].size();
  bool any = all[0] != nullptr || all[1] != nullptr || all[2] != nullptr;
  own.assign(3 * dims, nullptr);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t d = 0; d < dims; ++d) {
      own[i * dims + d] = mine(committed.by_dim[i][d]);
      any = any || own[i * dims + d] != nullptr;
    }
  }
  if (any) {
    for (const SampleLog::TestEntry& e : log.tests()) {
      const double values[] = {e.duration_s, e.data_mb, e.deviation};
      for (std::size_t i = 0; i < 3; ++i) {
        if (all[i] != nullptr) all[i]->push_back(values[i]);
      }
      for (const SampleLog::DimId d : e.dims) {
        if (d == SampleLog::kNoDim) continue;
        for (std::size_t i = 0; i < 3; ++i) {
          if (std::vector<double>* c = own[i * dims + d]) c->push_back(values[i]);
        }
      }
      next_record();
    }
  }

  any = egress_all != nullptr;
  own.assign(committed.by_server.size(), nullptr);
  for (std::size_t s = 0; s < own.size(); ++s) {
    own[s] = mine(committed.by_server[s]);
    any = any || own[s] != nullptr;
  }
  if (!any) return;
  for (const SampleLog::EgressEntry& e : log.egress()) {
    if (egress_all != nullptr) egress_all->push_back(e.util_pct);
    if (own[e.server] != nullptr) own[e.server]->push_back(e.util_pct);
    next_record();
  }
}

}  // namespace swiftest::obs::health
