#include "obs/span/critical_path.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>

#include "obs/json.hpp"

namespace swiftest::obs::span {
namespace {

/// A span with resolved tree links and a clip-corrected end time.
struct Node {
  const SpanData* span = nullptr;
  core::SimTime end = 0;  // effective end (open spans clipped upward later)
  bool aux = false;       // excluded from critical-path descent
  std::vector<std::size_t> children;
};

core::SimTime raw_end(const SpanData& s) {
  // Open spans carry end == begin timestamp; never let end precede start.
  return std::max(s.closed ? s.end : s.start, s.start);
}

/// Spans marked with attribute aux != 0 are concurrent annotations (a server
/// session running alongside the client's probing rounds): they contribute to
/// stage totals and to their parent's child cover, but the critical-path walk
/// never descends into them — the sequential stages own the attribution.
bool is_aux(const SpanData& s) {
  for (const auto& [key, value] : s.attrs) {
    if (key == "aux") return value != 0.0;
  }
  return false;
}

/// Collects a tree's member indices in deterministic (DFS, child-order)
/// order. `seen` guards against parent cycles in damaged input.
std::vector<std::size_t> collect_tree(const std::vector<Node>& nodes, std::size_t root,
                                      std::vector<bool>& seen) {
  std::vector<std::size_t> members;
  std::vector<std::size_t> stack = {root};
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    if (seen[i]) continue;
    seen[i] = true;
    members.push_back(i);
    for (auto it = nodes[i].children.rbegin(); it != nodes[i].children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return members;
}

/// Self time of one span: duration minus the union of its children's
/// intervals (clipped to the span).
double self_seconds(const std::vector<Node>& nodes, std::size_t i) {
  const Node& node = nodes[i];
  const core::SimTime s = node.span->start;
  const core::SimTime e = node.end;
  std::vector<std::pair<core::SimTime, core::SimTime>> intervals;
  intervals.reserve(node.children.size());
  for (std::size_t c : node.children) {
    const core::SimTime cs = std::max(nodes[c].span->start, s);
    const core::SimTime ce = std::min(nodes[c].end, e);
    if (ce > cs) intervals.emplace_back(cs, ce);
  }
  std::sort(intervals.begin(), intervals.end());
  core::SimDuration covered = 0;
  core::SimTime frontier = s;
  for (const auto& [cs, ce] : intervals) {
    const core::SimTime from = std::max(cs, frontier);
    if (ce > from) covered += ce - from;
    frontier = std::max(frontier, ce);
  }
  return core::to_seconds((e - s) - covered);
}

/// Walks the critical path of the tree under `root`: backward from the
/// root's end, descending into whichever child is active at the frontier and
/// charging uncovered gaps to the parent. The produced segments partition
/// [root.start, root.end] exactly.
std::vector<CriticalSegment> critical_path(const std::vector<Node>& nodes,
                                           std::size_t root) {
  struct Frame {
    std::size_t node;
    core::SimTime s;
    core::SimTime frontier;
    std::vector<std::size_t> by_end;  // children, latest effective end first
    std::size_t next = 0;
  };
  auto make_frame = [&nodes](std::size_t i, core::SimTime s, core::SimTime e) {
    Frame frame{i, s, e, {}, 0};
    frame.by_end.reserve(nodes[i].children.size());
    for (std::size_t c : nodes[i].children) {
      if (!nodes[c].aux) frame.by_end.push_back(c);
    }
    std::sort(frame.by_end.begin(), frame.by_end.end(),
              [&nodes](std::size_t a, std::size_t b) {
                if (nodes[a].end != nodes[b].end) return nodes[a].end > nodes[b].end;
                return nodes[a].span->id > nodes[b].span->id;
              });
    return frame;
  };

  std::vector<CriticalSegment> segments;  // reverse time order while walking
  auto emit = [&](std::size_t i, core::SimTime s, core::SimTime e) {
    if (e <= s) return;
    CriticalSegment seg;
    seg.span_id = nodes[i].span->id;
    seg.name = nodes[i].span->name;
    seg.start = s;
    seg.end = e;
    segments.push_back(std::move(seg));
  };

  // Parent cycles leave back-edges in `children`; never descend into a node
  // already on (or through) the walk, so damaged input cannot loop forever.
  std::vector<bool> visited(nodes.size(), false);
  visited[root] = true;

  std::vector<Frame> stack;
  stack.push_back(make_frame(root, nodes[root].span->start, nodes[root].end));
  while (!stack.empty()) {
    Frame& f = stack.back();
    bool descended = false;
    while (f.frontier > f.s && f.next < f.by_end.size()) {
      const std::size_t c = f.by_end[f.next++];
      if (visited[c]) continue;
      const core::SimTime cs = std::max(nodes[c].span->start, f.s);
      const core::SimTime ce = std::min(nodes[c].end, f.frontier);
      if (ce <= cs) continue;
      emit(f.node, ce, f.frontier);  // gap between child end and frontier
      f.frontier = cs;
      visited[c] = true;
      stack.push_back(make_frame(c, cs, ce));
      descended = true;
      break;
    }
    if (descended) continue;
    emit(f.node, f.s, f.frontier);
    stack.pop_back();
  }
  std::reverse(segments.begin(), segments.end());
  return segments;
}

StageStat& stage_for(std::map<std::string, StageStat>& stages, const std::string& name) {
  StageStat& stat = stages[name];
  if (stat.name.empty()) stat.name = name;
  return stat;
}

std::vector<StageStat> to_sorted(const std::map<std::string, StageStat>& stages) {
  std::vector<StageStat> out;
  out.reserve(stages.size());
  for (const auto& [name, stat] : stages) out.push_back(stat);
  return out;
}

void append_stage_json(std::string& body, const StageStat& stat,
                       const char* indent) {
  body += indent;
  body += "{\"name\":";
  append_json_string(body, stat.name);
  body += ",\"count\":";
  append_u64(body, stat.count);
  body += ",\"total_s\":";
  append_double(body, stat.total_s);
  body += ",\"self_s\":";
  append_double(body, stat.self_s);
  body += ",\"critical_s\":";
  append_double(body, stat.critical_s);
  body += "}";
}

}  // namespace

double CriticalSegment::seconds() const { return core::to_seconds(end - start); }

AttributionReport analyze_spans(const std::vector<SpanData>& spans) {
  AttributionReport report;
  report.span_count = spans.size();

  // Resolve tree links. Duplicate ids keep the first occurrence.
  std::map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id.emplace(spans[i].id, i);

  std::vector<Node> nodes(spans.size());
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    nodes[i].span = &spans[i];
    nodes[i].end = raw_end(spans[i]);
    nodes[i].aux = is_aux(spans[i]);
    if (!spans[i].closed) ++report.open_spans;
    const std::uint64_t parent = spans[i].parent;
    const auto it = by_id.find(parent);
    if (parent == 0 || parent == spans[i].id || it == by_id.end() ||
        it->second == i) {
      if (parent != 0 && (it == by_id.end() || it->second == i)) {
        ++report.orphan_spans;
      }
      roots.push_back(i);
    } else {
      nodes[it->second].children.push_back(i);
    }
  }

  // Parent cycles (possible only in damaged input) are unreachable from any
  // root: break each at its smallest-id member and analyze what remains.
  std::vector<bool> seen(spans.size(), false);
  std::vector<std::vector<std::size_t>> trees;
  for (std::size_t r : roots) trees.push_back(collect_tree(nodes, r, seen));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (seen[i]) continue;
    ++report.orphan_spans;
    roots.push_back(i);
    trees.push_back(collect_tree(nodes, i, seen));
  }

  std::map<std::string, StageStat> run_stages;
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const std::vector<std::size_t>& members = trees[t];
    const std::size_t root = roots[t];

    // Clip open spans up to the tree's latest timestamp so an in-flight
    // trace still yields a well-formed attribution.
    core::SimTime tree_max = nodes[root].span->start;
    for (std::size_t i : members) tree_max = std::max(tree_max, nodes[i].end);
    for (std::size_t i : members) {
      if (!nodes[i].span->closed) nodes[i].end = tree_max;
    }

    TraceAttribution trace;
    trace.root_id = nodes[root].span->id;
    trace.trace_id = nodes[root].span->trace_id;
    trace.root_name = nodes[root].span->name;
    trace.duration_s = core::to_seconds(nodes[root].end - nodes[root].span->start);
    trace.critical_path = critical_path(nodes, root);

    std::map<std::string, StageStat> tree_stages;
    for (std::size_t i : members) {
      const double total = core::to_seconds(nodes[i].end - nodes[i].span->start);
      const double self = self_seconds(nodes, i);
      for (auto* stages : {&tree_stages, &run_stages}) {
        StageStat& stat = stage_for(*stages, nodes[i].span->name);
        ++stat.count;
        stat.total_s += total;
        stat.self_s += self;
      }
    }
    for (const CriticalSegment& seg : trace.critical_path) {
      const double s = seg.seconds();
      trace.critical_sum_s += s;
      stage_for(tree_stages, seg.name).critical_s += s;
      stage_for(run_stages, seg.name).critical_s += s;
    }
    trace.stages = to_sorted(tree_stages);
    report.traces.push_back(std::move(trace));
  }

  std::sort(report.traces.begin(), report.traces.end(),
            [](const TraceAttribution& a, const TraceAttribution& b) {
              return a.root_id < b.root_id;
            });
  report.stages = to_sorted(run_stages);
  return report;
}

void write_attribution_json(const AttributionReport& report, std::ostream& out) {
  std::string body = "{\n  \"summary\": {\"spans\": ";
  append_u64(body, report.span_count);
  body += ", \"traces\": ";
  append_u64(body, report.traces.size());
  body += ", \"open_spans\": ";
  append_u64(body, report.open_spans);
  body += ", \"orphan_spans\": ";
  append_u64(body, report.orphan_spans);
  body += "},\n  \"stages\": [";
  for (std::size_t i = 0; i < report.stages.size(); ++i) {
    body += i == 0 ? "\n" : ",\n";
    append_stage_json(body, report.stages[i], "    ");
  }
  body += report.stages.empty() ? "],\n" : "\n  ],\n";
  body += "  \"traces\": [";
  for (std::size_t t = 0; t < report.traces.size(); ++t) {
    const TraceAttribution& trace = report.traces[t];
    body += t == 0 ? "\n" : ",\n";
    body += "    {\"root_id\": ";
    append_u64(body, trace.root_id);
    body += ", \"trace_id\": ";
    append_u64(body, trace.trace_id);
    body += ", \"root_name\": ";
    append_json_string(body, trace.root_name);
    body += ", \"duration_s\": ";
    append_double(body, trace.duration_s);
    body += ", \"critical_sum_s\": ";
    append_double(body, trace.critical_sum_s);
    body += ",\n     \"critical_path\": [";
    for (std::size_t i = 0; i < trace.critical_path.size(); ++i) {
      const CriticalSegment& seg = trace.critical_path[i];
      body += i == 0 ? "\n" : ",\n";
      body += "       {\"span\": ";
      append_u64(body, seg.span_id);
      body += ", \"name\": ";
      append_json_string(body, seg.name);
      body += ", \"start\": ";
      append_i64(body, seg.start);
      body += ", \"end\": ";
      append_i64(body, seg.end);
      body += ", \"seconds\": ";
      append_double(body, seg.seconds());
      body += "}";
    }
    body += trace.critical_path.empty() ? "],\n" : "\n     ],\n";
    body += "     \"stages\": [";
    for (std::size_t i = 0; i < trace.stages.size(); ++i) {
      body += i == 0 ? "\n" : ",\n";
      append_stage_json(body, trace.stages[i], "       ");
    }
    body += trace.stages.empty() ? "]}" : "\n     ]}";
  }
  body += report.traces.empty() ? "]\n" : "\n  ]\n";
  body += "}\n";
  out << body;
}

void write_attribution_markdown(const AttributionReport& report, std::ostream& out,
                                std::size_t max_traces) {
  char buf[160];
  out << "# Latency attribution\n\n";
  std::snprintf(buf, sizeof(buf),
                "%zu span(s) in %zu trace(s); %zu open, %zu orphan.\n\n",
                report.span_count, report.traces.size(), report.open_spans,
                report.orphan_spans);
  out << buf;

  out << "## Stages (all traces)\n\n"
      << "| stage | count | total s | self s | critical s |\n"
      << "|---|---:|---:|---:|---:|\n";
  for (const StageStat& stat : report.stages) {
    std::snprintf(buf, sizeof(buf), "| %s | %llu | %.4f | %.4f | %.4f |\n",
                  stat.name.c_str(), static_cast<unsigned long long>(stat.count),
                  stat.total_s, stat.self_s, stat.critical_s);
    out << buf;
  }

  const std::size_t shown = max_traces == 0
                                ? report.traces.size()
                                : std::min(max_traces, report.traces.size());
  for (std::size_t t = 0; t < shown; ++t) {
    const TraceAttribution& trace = report.traces[t];
    std::snprintf(buf, sizeof(buf),
                  "\n## Trace %s (root %llu, trace_id %llu): %.4f s\n\n",
                  trace.root_name.c_str(),
                  static_cast<unsigned long long>(trace.root_id),
                  static_cast<unsigned long long>(trace.trace_id),
                  trace.duration_s);
    out << buf;
    out << "Critical path (sums to " << trace.critical_sum_s << " s):\n\n"
        << "| stage | start s | seconds | share |\n"
        << "|---|---:|---:|---:|\n";
    for (const CriticalSegment& seg : trace.critical_path) {
      const double share =
          trace.duration_s > 0.0 ? 100.0 * seg.seconds() / trace.duration_s : 0.0;
      std::snprintf(buf, sizeof(buf), "| %s | %.4f | %.4f | %.1f%% |\n",
                    seg.name.c_str(), core::to_seconds(seg.start), seg.seconds(),
                    share);
      out << buf;
    }
  }
  if (shown < report.traces.size()) {
    std::snprintf(buf, sizeof(buf), "\n(%zu more trace(s) not shown)\n",
                  report.traces.size() - shown);
    out << buf;
  }
}

}  // namespace swiftest::obs::span
