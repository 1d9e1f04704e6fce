#include "obs/health/sample_log.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace swiftest::obs::health {

SampleLog::DimId SampleLog::intern(std::string_view dimension) {
  if (shares_) throw std::logic_error("SampleLog: intern() on a shared dimension table");
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
  const std::size_t table = dimensions().size();
  for (const DimId d : entry.dims) {
    if (d != kNoDim && d >= table) {
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

/// True when the logs' arrivals, concatenated, never go back in time.
bool arrivals_ordered(std::span<const SampleLog* const> logs) {
  double last = -std::numeric_limits<double>::infinity();
  for (const SampleLog* log : logs) {
    for (const double t : log->arrival_times()) {
      if (t < last) return false;
      last = t;
    }
  }
  return true;
}

}  // namespace

LogFold::LogFold(HealthMonitor& monitor, std::size_t lanes,
                 std::span<const std::string> dimensions)
    : monitor_(&monitor),
      lane_count_(std::max<std::size_t>(1, lanes)),
      lane_load_(lane_count_, 0),
      table_(dimensions),
      last_arrival_(-std::numeric_limits<double>::infinity()),
      lane_states_(lane_count_) {
  table_keys_.reserve(table_.size());
  for (const std::string& key : table_) table_keys_.push_back(key_id(key));
}

LogFold::LogFold(std::span<const SampleLog* const> logs, HealthMonitor& monitor,
                 std::size_t lanes)
    : LogFold(monitor, lanes) {
  lane_states_.clear();
  // Logs whose concatenation goes back in time feed the windowed rate one
  // stable merge by time instead (ties keep log order).
  const bool ordered = arrivals_ordered(logs);
  if (!ordered) {
    std::vector<double> merged;
    for (const SampleLog* log : logs) {
      merged.insert(merged.end(), log->arrival_times().begin(),
                    log->arrival_times().end());
    }
    std::stable_sort(merged.begin(), merged.end());
    for (const double t : merged) monitor.note_arrival(t);
  }
  committed_.resize(logs.size());
  for (std::size_t l = 0; l < logs.size(); ++l) {
    commit_log(*logs[l], committed_[l], ordered);
  }
  // Cells are dealt lightest lane first, so with fewer cells than lanes the
  // cells sit on the lowest lanes and the rest would idle.
  lane_count_ = std::clamp<std::size_t>(lane_count_, 1, std::max<std::uint32_t>(1, cells_));
}

std::uint32_t LogFold::key_id(std::string_view key) {
  if (const auto it = key_ids_.find(key); it != key_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(keys_.size());
  const auto it = key_ids_.emplace(std::string(key), id).first;
  keys_.push_back(it->first);
  test_cells_.push_back({kNoCell, kNoCell, kNoCell});
  return id;
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
  commit_log(log, out, /*arrivals=*/true);
}

void LogFold::commit_log(const SampleLog& log, Committed& out, bool arrivals) {
  if (arrivals) {
    double last = last_arrival_;
    for (const double t : log.arrival_times()) {
      if (t < last) {
        throw std::invalid_argument("LogFold: arrival precedes the last one committed");
      }
      last = t;
    }
    for (const double t : log.arrival_times()) monitor_->note_arrival(t);
    last_arrival_ = last;
  }
  monitor_->add_tests(log.tests().size());

  out.log = &log;
  out.born.clear();
  born_uses_.clear();

  // The log's ids as fold-wide key ids: the run's table is resolved once,
  // a log's own table key by key.
  const std::span<const std::string> dims = log.dimensions();
  const bool shared = dims.data() == table_.data() && dims.size() == table_.size();
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
    const std::uint32_t key = shared ? table_keys_[d] : key_id(dims[d]);
    for (std::size_t i = 0; i < 3; ++i) {
      out.by_dim[i][d] = resolve(test_cells_[key][i], kTestMetricNames[i], keys_[key],
                                 uses_[d], out);
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

void LogFold::fold(std::size_t lane, const Committed& log) {
  fold_into(lane_states_[lane], lane, log);
}

void LogFold::finish() {
  for (Lane& state : lane_states_) drain(state);
}

void LogFold::run_lane(std::size_t lane) const {
  Lane state;
  for (const Committed& log : committed_) fold_into(state, lane, log);
  drain(state);
}

void LogFold::drain(Lane& state) {
  for (const std::uint32_t c : state.owned) {
    state.aggregate[c]->observe_all(state.pending[c]);
    state.pending[c].clear();
  }
  state.records = 0;
}

void LogFold::fold_into(Lane& state, std::size_t lane, const Committed& committed) {
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
