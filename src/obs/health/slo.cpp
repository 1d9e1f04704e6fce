#include "obs/health/slo.hpp"

#include <cmath>

#include "obs/json.hpp"

namespace swiftest::obs::health {

std::size_t SloEvaluation::violations() const {
  std::size_t n = 0;
  for (const SloResult& r : results) {
    if (r.status == SloStatus::kViolated) ++n;
  }
  return n;
}

std::optional<double> stat_value(const AggregateStats& stats,
                                 std::string_view stat) {
  if (stat == "mean") return stats.mean;
  if (stat == "min") return stats.min;
  if (stat == "max") return stats.max;
  if (stat == "p50" || stat == "median") return stats.p50;
  if (stat == "p95") return stats.p95;
  if (stat == "p99") return stats.p99;
  if (stat == "count") return static_cast<double>(stats.count);
  if (stat == "sum") return stats.sum;
  return std::nullopt;
}

std::optional<std::vector<SloSpec>> parse_slo_specs(std::string_view json_text,
                                                    std::string* error) {
  const auto doc = parse_json(json_text, error);
  if (!doc) return std::nullopt;
  const JsonValue* slos = doc->get("slos");
  if (slos == nullptr || !slos->is_array()) {
    if (error != nullptr) *error = "spec must be an object with an \"slos\" array";
    return std::nullopt;
  }
  std::vector<SloSpec> specs;
  for (std::size_t i = 0; i < slos->as_array().size(); ++i) {
    const JsonValue& entry = slos->as_array()[i];
    SloSpec spec;
    spec.name = entry.get_string("name", "");
    spec.metric = entry.get_string("metric", "");
    spec.stat = entry.get_string("stat", "p95");
    spec.dimension = entry.get_string("dimension", "all");
    if (const JsonValue* v = entry.get("max");
        v != nullptr && v->type() == JsonValue::Type::kNumber) {
      spec.max_value = v->as_number();
    }
    if (const JsonValue* v = entry.get("min");
        v != nullptr && v->type() == JsonValue::Type::kNumber) {
      spec.min_value = v->as_number();
    }
    if (const JsonValue* v = entry.get("min_samples"); v != nullptr) {
      // Only a whole number a double holds exactly converts: casting a
      // negative or out-of-range double to an integer is undefined.
      constexpr double kTwoPow53 = 9007199254740992.0;
      const double n = v->type() == JsonValue::Type::kNumber ? v->as_number() : -1.0;
      if (!(n >= 0.0 && n <= kTwoPow53 && n == std::floor(n))) {
        if (error != nullptr) {
          *error = "slo #" + std::to_string(i) +
                   " \"min_samples\" must be a whole number in [0, 2^53]";
        }
        return std::nullopt;
      }
      spec.min_samples = static_cast<std::uint64_t>(n);
    }
    if (spec.name.empty() || spec.metric.empty() ||
        (!spec.max_value && !spec.min_value)) {
      if (error != nullptr) {
        *error = "slo #" + std::to_string(i) +
                 " needs \"name\", \"metric\", and \"max\" or \"min\"";
      }
      return std::nullopt;
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::optional<std::vector<SloSpec>> load_slo_file(const std::string& path,
                                                  std::string* error) {
  const auto text = read_file(path, error);
  if (!text) return std::nullopt;
  return parse_slo_specs(*text, error);
}

namespace {

SloResult evaluate_cell(const SloSpec& spec, const std::string& dimension,
                        const AggregateStats& stats) {
  SloResult result;
  result.spec = spec;
  result.dimension = dimension;
  result.samples = stats.count;
  const auto value = stat_value(stats, spec.stat);
  if (!value) {
    result.status = SloStatus::kViolated;  // unknown stat never silently passes
    return result;
  }
  result.observed = *value;
  if (stats.count < spec.min_samples) {
    result.status = SloStatus::kSkipped;
    return result;
  }
  const bool over = spec.max_value && *value > *spec.max_value;
  const bool under = spec.min_value && *value < *spec.min_value;
  result.status = over || under ? SloStatus::kViolated : SloStatus::kPass;
  return result;
}

}  // namespace

SloEvaluation evaluate_slos(const std::vector<SloSpec>& specs,
                            const HealthSnapshot& snapshot) {
  SloEvaluation evaluation;
  for (const SloSpec& spec : specs) {
    const auto metric = snapshot.metrics.find(spec.metric);
    if (metric == snapshot.metrics.end()) {
      SloResult missing;
      missing.spec = spec;
      missing.dimension = spec.dimension;
      missing.status = SloStatus::kViolated;
      evaluation.results.push_back(std::move(missing));
      continue;
    }
    const auto& cells = metric->second;
    if (spec.dimension.size() >= 2 && spec.dimension.back() == '*') {
      const std::string_view prefix =
          std::string_view(spec.dimension).substr(0, spec.dimension.size() - 1);
      bool any = false;
      for (const auto& [dim, stats] : cells) {
        if (dim.rfind(prefix, 0) != 0) continue;
        any = true;
        evaluation.results.push_back(evaluate_cell(spec, dim, stats));
      }
      if (!any) {
        SloResult missing;
        missing.spec = spec;
        missing.dimension = spec.dimension;
        missing.status = SloStatus::kViolated;
        evaluation.results.push_back(std::move(missing));
      }
      continue;
    }
    const auto cell = cells.find(spec.dimension);
    if (cell == cells.end()) {
      SloResult missing;
      missing.spec = spec;
      missing.dimension = spec.dimension;
      missing.status = SloStatus::kViolated;
      evaluation.results.push_back(std::move(missing));
      continue;
    }
    evaluation.results.push_back(evaluate_cell(spec, cell->first, cell->second));
  }
  return evaluation;
}

}  // namespace swiftest::obs::health
