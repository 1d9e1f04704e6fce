#include "obs/span/span.hpp"

#include <string>

namespace swiftest::obs::span {

SpanRecord* SpanStore::find(SpanId id) noexcept {
  if (id == kNoSpan || spans_.empty()) return nullptr;
  const SpanId first = spans_.front().id;
  if (id < first || id > spans_.back().id) return nullptr;
  return &spans_[static_cast<std::size_t>(id - first)];
}

SpanId SpanStore::begin(core::SimTime ts, Category category, const char* name,
                        SpanId parent, std::uint64_t trace_id) {
  if (sampled_mode_ && parent == kNoSpan && trace_id != 0 &&
      anchors_.find(trace_id) == anchors_.end()) {
    ++suppressed_;
    return kNoSpan;
  }
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

void SpanStore::append(const SpanRecord& record) {
  spans_.push_back(record);
  next_id_ = record.id + 1;
  if (!record.closed) ++open_;
}

}  // namespace swiftest::obs::span
