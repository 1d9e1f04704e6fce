#include "obs/span/span.hpp"

#include <algorithm>
#include <cstring>
#include <string>

namespace swiftest::obs::span {

SpanRecord* SpanStore::find(SpanId id) noexcept {
  if (id == kNoSpan || spans_.empty()) return nullptr;
  const SpanId first = spans_.front().id;
  if (id < first || id > spans_.back().id) return nullptr;
  return &spans_[static_cast<std::size_t>(id - first)];
}

void SpanStore::make_room() {
  if (!spill_) return;
  // Rotate out the longest fully-closed prefix. Parents begin before and
  // close after their children, so an open subtree is never split: the
  // prefix stops at the oldest still-open span.
  std::size_t closed = 0;
  while (closed < spans_.size() && spans_[closed].closed) ++closed;
  if (closed == 0) return;
  spill_(spans_.data(), closed);
  spilled_ += closed;
  spans_.erase(spans_.begin(), spans_.begin() + static_cast<std::ptrdiff_t>(closed));
}

SpanId SpanStore::begin(core::SimTime ts, Category category, const char* name,
                        SpanId parent, std::uint64_t trace_id) {
  if (sampled_mode_ && parent == kNoSpan && trace_id != 0 &&
      anchors_.find(trace_id) == anchors_.end()) {
    ++suppressed_;
    return kNoSpan;
  }
  if (spans_.size() >= capacity_) make_room();
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNoSpan;
  }
  SpanRecord record;
  record.id = next_id_++;
  record.parent = parent;
  record.name = name;
  record.category = category;
  record.start = ts;
  record.end = ts;
  if (trace_id != 0) {
    record.trace_id = trace_id;
    anchors_.emplace(trace_id, record.id);  // first registration wins
  } else if (const SpanRecord* p = find(parent)) {
    record.trace_id = p->trace_id;
  }
  spans_.push_back(record);
  ++open_;
  if (tracer_ != nullptr && tracer_->wants(category)) {
    tracer_->record(ts, category, EventKind::kInstant, "span.begin", record.id,
                    static_cast<double>(parent));
  }
  return record.id;
}

void SpanStore::end(SpanId id, core::SimTime ts) {
  SpanRecord* record = find(id);
  if (record == nullptr || record->closed) return;
  record->end = ts < record->start ? record->start : ts;
  record->closed = true;
  --open_;
  const double seconds = core::to_seconds(record->duration());
  if (tracer_ != nullptr && tracer_->wants(record->category)) {
    tracer_->record(record->end, record->category, EventKind::kInstant, "span.end",
                    id, seconds);
  }
  if (metrics_ != nullptr) {
    Histogram*& hist = stage_hist_[static_cast<const void*>(record->name)];
    if (hist == nullptr) {
      hist = &metrics_->histogram(
          std::string("span.stage_seconds/") + record->name,
          {0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0});
    }
    hist->observe(seconds);
  }
}

void SpanStore::attr_f64(SpanId id, const char* key, double value) {
  SpanRecord* record = find(id);
  if (record == nullptr || record->attr_count >= SpanRecord::kMaxAttrs) return;
  SpanAttr& attr = record->attrs[record->attr_count++];
  attr.key = key;
  attr.type = SpanAttr::Type::kF64;
  attr.f64 = value;
}

void SpanStore::attr_u64(SpanId id, const char* key, std::uint64_t value) {
  SpanRecord* record = find(id);
  if (record == nullptr || record->attr_count >= SpanRecord::kMaxAttrs) return;
  SpanAttr& attr = record->attrs[record->attr_count++];
  attr.key = key;
  attr.type = SpanAttr::Type::kU64;
  attr.u64 = value;
}

void SpanStore::set_trace_id(SpanId id, std::uint64_t trace_id) {
  SpanRecord* record = find(id);
  if (record == nullptr || trace_id == 0) return;
  record->trace_id = trace_id;
  anchors_.emplace(trace_id, id);
}

SpanId SpanStore::anchor(std::uint64_t trace_id) const {
  const auto it = anchors_.find(trace_id);
  return it == anchors_.end() ? kNoSpan : it->second;
}

void SpanStore::merge_from(const SpanStore& src) {
  // Parents always begin before their children, so by the time a child is
  // copied its parent's new id is already in the remap (unless src spilled
  // it — then the child becomes a root here, matching how the spill file
  // keeps the original global ids).
  std::map<SpanId, SpanId> remap;
  spans_.reserve(spans_.size() + src.spans_.size());
  for (const SpanRecord& r : src.spans_) {
    SpanRecord copy = r;
    copy.id = next_id_++;
    if (copy.parent != kNoSpan) {
      const auto it = remap.find(copy.parent);
      copy.parent = it == remap.end() ? kNoSpan : it->second;
    }
    remap.emplace(r.id, copy.id);
    spans_.push_back(copy);
  }
  for (const auto& [trace_id, id] : src.anchors_) {
    const auto it = remap.find(id);
    if (it != remap.end()) {
      anchors_.emplace(trace_id, it->second);  // first registration wins
    }
  }
  dropped_ += src.dropped_;
  spilled_ += src.spilled_;
  suppressed_ += src.suppressed_;
  open_ += src.open_;
}

void SpanStore::sort_canonical() {
  std::stable_sort(
      spans_.begin(), spans_.end(), [](const SpanRecord& a, const SpanRecord& b) {
        if (a.start != b.start) return a.start < b.start;
        if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
        // Names are literals but MUST compare by content: the same literal
        // has different addresses in different shard replicas.
        if (const int c = std::strcmp(a.name, b.name); c != 0) return c < 0;
        if (a.end != b.end) return a.end < b.end;
        if (a.category != b.category) return a.category < b.category;
        return a.closed != b.closed && !a.closed;
        // Full content ties keep their (stable) order; identical records
        // render identically either way.
      });
  std::map<SpanId, SpanId> remap;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    remap.emplace(spans_[i].id, static_cast<SpanId>(i + 1));
  }
  for (SpanRecord& r : spans_) {
    r.id = remap[r.id];
    if (r.parent != kNoSpan) {
      const auto it = remap.find(r.parent);
      r.parent = it == remap.end() ? kNoSpan : it->second;
    }
  }
  anchors_.clear();
  for (const SpanRecord& r : spans_) {
    if (r.trace_id != 0 && r.parent == kNoSpan) {
      anchors_.emplace(r.trace_id, r.id);  // first root per trace wins
    }
  }
  next_id_ = static_cast<SpanId>(spans_.size()) + 1;
}

}  // namespace swiftest::obs::span
