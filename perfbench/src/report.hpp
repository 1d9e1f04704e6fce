// What one benchmark run hands back to perfbench/run.py: metrics by name
// with units, named facts about the run (bases, counts, sources), and the
// output checks that failed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizing: every workload shrunk to well under a second.
  bool tiny = false;
  /// Directory for artifacts the run writes (obs exports); must exist.
  std::string out_dir = ".";
};

class Report {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::string source;  // "workload" (measured in place) or "ledger"
  };

  /// Records a metric measured on the workload itself.
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit, "workload"};
  }
  /// Records a ledger (isolation / reference-run) value unless the workload
  /// already measured this metric in place.
  void ledger_metric(const std::string& name, double value, const std::string& unit) {
    metrics_.try_emplace(name, Metric{value, unit, "ledger"});
  }
  void put(bool ledger, const std::string& name, double value, const std::string& unit) {
    if (ledger) {
      ledger_metric(name, value, unit);
    } else {
      metric(name, value, unit);
    }
  }
  [[nodiscard]] bool has(const std::string& name) const { return metrics_.count(name) != 0; }

  void info(const std::string& key, double value) { numbers_[key] = value; }
  void info(const std::string& key, const std::string& value) { strings_[key] = value; }

  /// An output check: a failure marks the run incorrect and is listed.
  void check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }

  void add_attempts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// One JSON object on one line.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> numbers_;
  std::map<std::string, std::string> strings_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Runs the workload named in `options` and fills `report`.
void run_workload(const Options& options, Report& report);

}  // namespace perfbench
