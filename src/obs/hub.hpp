// The observability bundle a simulation opts into.
//
// A Hub owns one Tracer, one MetricsRegistry, and one SpanStore. Attaching a
// Hub to a netsim::Scheduler (Scheduler::set_obs) switches on
// instrumentation for every component driven by that scheduler; with no Hub
// attached (the default), every instrumentation site reduces to a branch on
// a null pointer — no allocation, no stores, no formatting.
//
// A Scheduler may route trace events to a tracer other than its Hub's
// (Scheduler::set_tracer), or to none, while metrics and spans stay on the
// Hub. Attach the Hub before running the simulation. Handle-based metric
// bindings are established lazily at each component's first instrumented
// action, so components constructed before set_obs() still report. The span
// store mirrors begin/end markers into the tracer and per-stage duration
// histograms into the metrics registry (span.stage_seconds/<name>).
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/span/span.hpp"
#include "obs/trace.hpp"

namespace swiftest::obs {

struct Hub {
  explicit Hub(std::size_t trace_capacity = Tracer::kDefaultCapacity,
               std::size_t span_capacity = span::SpanStore::kDefaultCapacity)
      : tracer(trace_capacity), spans(span_capacity) {
    spans.set_sinks(&tracer, &metrics);
  }

  /// A fresh Hub shaped like `like` — same ring/store capacities and tracer
  /// category mask, empty contents — with the trace ring capped at
  /// `max_trace_capacity` (default: no cap). The packet fleet builds one per
  /// chunk, folded into `like` at merge, and one per test for its metrics and
  /// spans (its trace events go to the chunk's tracer, see
  /// Scheduler::set_tracer); the analytic fleet caps its chunk hubs' rings.
  [[nodiscard]] static std::unique_ptr<Hub> mirror_of(
      const Hub& like,
      std::size_t max_trace_capacity = std::numeric_limits<std::size_t>::max()) {
    auto hub = std::make_unique<Hub>(
        std::min(like.tracer.capacity(), max_trace_capacity), like.spans.capacity());
    hub->tracer.set_category_mask(like.tracer.category_mask());
    return hub;
  }

  Tracer tracer;
  MetricsRegistry metrics;
  span::SpanStore spans;

  /// Where a fleet's canonical trace stream (deploy/trace_stream.hpp) sends
  /// its events and spans, e.g. straight into artifacts; when empty, they
  /// land in `tracer` and `spans`.
  std::function<void(const TraceEvent&)> event_sink;
  std::function<void(const span::SpanRecord&)> span_sink;
};

}  // namespace swiftest::obs
