#include "obs/health/sample_log.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace swiftest::obs::health {

SampleLog::DimId SampleLog::intern(std::string_view dimension) {
  if (dimension.empty()) return kNoDim;
  if (const auto it = dim_ids_.find(dimension); it != dim_ids_.end()) return it->second;
  if (dims_.size() >= kNoDim) {
    throw std::length_error("SampleLog: too many distinct dimension keys");
  }
  const auto id = static_cast<DimId>(dims_.size());
  dims_.emplace_back(dimension);
  dim_ids_.emplace(dims_.back(), id);
  return id;
}

void SampleLog::record_test(const TestEntry& entry) {
  for (const DimId d : entry.dims) {
    if (d != kNoDim && d >= dims_.size()) {
      throw std::out_of_range("SampleLog: dimension id was never interned");
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

/// Feeds the arrival streams of `logs` into `monitor` in time order: the
/// logs' concatenation when that is already non-decreasing — chunks hold
/// consecutive draws and each log is non-decreasing, so it normally is —
/// otherwise a stable sort of it (ties keep log order).
void merge_arrivals(std::span<const SampleLog* const> logs, HealthMonitor& monitor) {
  bool ordered = true;
  double last = -std::numeric_limits<double>::infinity();
  for (const SampleLog* log : logs) {
    for (const double t : log->arrival_times()) {
      ordered = ordered && t >= last;
      last = t;
    }
  }
  if (ordered) {
    for (const SampleLog* log : logs) {
      for (double t : log->arrival_times()) monitor.note_arrival(t);
    }
    return;
  }
  std::vector<double> merged;
  for (const SampleLog* log : logs) {
    merged.insert(merged.end(), log->arrival_times().begin(),
                  log->arrival_times().end());
  }
  std::stable_sort(merged.begin(), merged.end());
  for (double t : merged) monitor.note_arrival(t);
}

}  // namespace

LogFold::LogFold(std::span<const SampleLog* const> logs, HealthMonitor& monitor,
                 std::size_t lanes)
    : logs_(logs.begin(), logs.end()) {
  merge_arrivals(logs, monitor);

  // Every cell the logs feed gets a fold-local index, counted once however
  // many logs feed it, with the observations it will see as its lane weight.
  std::unordered_map<const StreamingAggregate*, std::uint32_t> index;
  std::vector<std::uint64_t> load;
  const auto resolve = [&](std::string_view metric, std::string_view dimension,
                           std::uint64_t n) {
    StreamingAggregate* cell = &monitor.cell(metric, dimension);
    const auto [it, added] =
        index.try_emplace(cell, static_cast<std::uint32_t>(cells_.size()));
    if (added) {
      cells_.push_back(cell);
      load.push_back(0);
    }
    load[it->second] += n;
    return it->second;
  };

  std::uint64_t tests = 0;
  log_cells_.resize(logs.size());
  for (std::size_t l = 0; l < logs.size(); ++l) {
    const SampleLog& log = *logs[l];
    LogCells& cells = log_cells_[l];
    tests += log.tests().size();

    std::vector<std::uint64_t> dim_uses(log.dimensions().size(), 0);
    for (const SampleLog::TestEntry& e : log.tests()) {
      for (const SampleLog::DimId d : e.dims) {
        if (d != SampleLog::kNoDim) ++dim_uses[d];
      }
    }
    for (std::size_t i = 0; i < 3; ++i) {
      if (!log.tests().empty()) {
        test_all_[i] = resolve(kTestMetricNames[i], "all", log.tests().size());
      }
      cells.by_dim[i].assign(dim_uses.size(), kNoCell);
      for (std::size_t d = 0; d < dim_uses.size(); ++d) {
        if (dim_uses[d] == 0) continue;
        cells.by_dim[i][d] =
            resolve(kTestMetricNames[i], log.dimensions()[d], dim_uses[d]);
      }
    }

    std::vector<std::uint64_t> server_uses;
    for (const SampleLog::EgressEntry& e : log.egress()) {
      if (e.server >= server_uses.size()) server_uses.resize(e.server + 1, 0);
      ++server_uses[e.server];
    }
    if (!log.egress().empty()) {
      egress_all_ = resolve(kMetricEgressUtil, "all", log.egress().size());
    }
    cells.by_server.assign(server_uses.size(), kNoCell);
    for (std::size_t s = 0; s < server_uses.size(); ++s) {
      if (server_uses[s] == 0) continue;
      ServerKeyBuffer key;
      cells.by_server[s] =
          resolve(kMetricEgressUtil, server_dimension(s, key), server_uses[s]);
    }
  }
  monitor.add_tests(tests);

  // Longest-processing-time dealing: heaviest cell first, onto the lane
  // with the least load so far (ties to the lower index).
  std::vector<std::uint32_t> order(cells_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return load[a] > load[b];
  });
  lanes_ = std::clamp<std::size_t>(lanes, 1, std::max<std::size_t>(1, cells_.size()));
  std::vector<std::uint64_t> lane_load(lanes_, 0);
  owner_.assign(cells_.size(), 0);
  for (const std::uint32_t c : order) {
    const auto lane = static_cast<std::size_t>(
        std::min_element(lane_load.begin(), lane_load.end()) - lane_load.begin());
    owner_[c] = static_cast<std::uint32_t>(lane);
    lane_load[lane] += load[c];
  }
}

void LogFold::run_lane(std::size_t lane) const {
  // Each of this lane's cells collects its values for up to kFoldBlock
  // consecutive records, in log order, then drains them through one
  // observe_all: a cell's pending values are always the next stretch of its
  // serial sequence, so the block size never changes what it is fed.
  std::vector<std::vector<double>> pending(cells_.size());  // [cell]
  std::vector<std::uint32_t> owned;
  for (std::uint32_t c = 0; c < cells_.size(); ++c) {
    if (owner_[c] == lane) owned.push_back(c);
  }
  std::size_t records = 0;
  const auto drain = [&] {
    for (const std::uint32_t c : owned) {
      cells_[c]->observe_all(pending[c]);
      pending[c].clear();
    }
    records = 0;
  };
  const auto next_record = [&] {
    if (++records == kFoldBlock) drain();
  };

  // This lane's buffer for a cell; null for a cell another lane owns or
  // none is fed.
  const auto mine = [&](std::uint32_t c) -> std::vector<double>* {
    return c != kNoCell && owner_[c] == lane ? &pending[c] : nullptr;
  };
  std::array<std::vector<double>*, 3> all{};
  for (std::size_t i = 0; i < 3; ++i) all[i] = mine(test_all_[i]);
  std::vector<double>* const egress_all = mine(egress_all_);

  std::vector<std::vector<double>*> own;  // this lane's view of one log's cells
  for (std::size_t l = 0; l < logs_.size(); ++l) {
    const SampleLog& log = *logs_[l];
    const LogCells& cells = log_cells_[l];

    const std::size_t dims = log.dimensions().size();
    bool any = all[0] != nullptr || all[1] != nullptr || all[2] != nullptr;
    own.assign(3 * dims, nullptr);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t d = 0; d < dims; ++d) {
        own[i * dims + d] = mine(cells.by_dim[i][d]);
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
    own.assign(cells.by_server.size(), nullptr);
    for (std::size_t s = 0; s < own.size(); ++s) {
      own[s] = mine(cells.by_server[s]);
      any = any || own[s] != nullptr;
    }
    if (!any) continue;
    for (const SampleLog::EgressEntry& e : log.egress()) {
      if (egress_all != nullptr) egress_all->push_back(e.util_pct);
      if (own[e.server] != nullptr) own[e.server]->push_back(e.util_pct);
      next_record();
    }
  }
  drain();
}

}  // namespace swiftest::obs::health
