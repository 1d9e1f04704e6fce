#include "deploy/trace_stream.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace swiftest::deploy {

bool canonical_less(const obs::TraceEvent& a, const obs::TraceEvent& b) noexcept {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (const int c = std::strcmp(a.name, b.name); c != 0) return c < 0;
  if (a.id != b.id) return a.id < b.id;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.category != b.category) return a.category < b.category;
  return a.value < b.value;
}

bool canonical_less(const obs::span::SpanRecord& a,
                    const obs::span::SpanRecord& b) noexcept {
  if (a.start != b.start) return a.start < b.start;
  if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
  if (const int c = std::strcmp(a.name, b.name); c != 0) return c < 0;
  if (a.end != b.end) return a.end < b.end;
  if (a.category != b.category) return a.category < b.category;
  if (a.closed != b.closed) return !a.closed;
  return a.id < b.id;
}

namespace {

constexpr core::SimTime kAll = std::numeric_limits<core::SimTime>::max();
/// Records read back from a run per block.
constexpr std::uint64_t kBlock = 4096;

core::SimTime start_of(const obs::TraceEvent& event) { return event.ts; }
core::SimTime start_of(const obs::span::SpanRecord& record) { return record.start; }

/// Splits records that come as a few runs ascending in start — one per
/// test, which has one clock — into runs in canonical order by sorting each
/// stretch of equal start in place. Merging the k runs costs O(n log k).
template <typename Record>
std::vector<std::span<const Record>> split_runs(std::span<Record> records) {
  const auto less = [](const Record& a, const Record& b) { return canonical_less(a, b); };
  std::vector<std::span<const Record>> runs;
  for (std::size_t i = 0, j = 0, first = 0; i < records.size(); i = j) {
    while (j < records.size() && start_of(records[j]) == start_of(records[i])) ++j;
    const std::span<Record> stretch = records.subspan(i, j - i);
    std::sort(stretch.begin(), stretch.end(), less);
    if (j == records.size() || start_of(records[j]) < start_of(records[i])) {
      runs.push_back(records.subspan(first, j - first));
      first = j;
    }
  }
  return runs;
}

/// One sorted source of a merge: records in memory, or a run of a file read
/// back a block at a time.
template <typename Record>
class Cursor {
 public:
  explicit Cursor(std::span<const Record> records) : rest_(records) {}
  Cursor(std::FILE* file, std::uint64_t offset, std::uint64_t count)
      : file_(file), offset_(offset), left_(count) {}

  [[nodiscard]] const Record* peek() {
    if (rest_.empty() && left_ > 0) {
      block_.resize(static_cast<std::size_t>(std::min(left_, kBlock)));
      const auto at = static_cast<long>(offset_ * sizeof(Record));
      if (std::fseek(file_, at, SEEK_SET) != 0 ||
          std::fread(block_.data(), sizeof(Record), block_.size(), file_) !=
              block_.size()) {
        throw std::runtime_error("cannot read a sorted trace run back");
      }
      offset_ += block_.size();
      left_ -= block_.size();
      rest_ = block_;
    }
    return rest_.empty() ? nullptr : rest_.data();
  }
  void pop() { rest_ = rest_.subspan(1); }

 private:
  std::span<const Record> rest_;
  std::FILE* file_ = nullptr;
  std::uint64_t offset_ = 0;
  std::uint64_t left_ = 0;
  std::vector<Record> block_;
};

/// Merges `held` with a chunk's sorted runs in memory and in `file`: every
/// record starting before `final_before` goes to `emit` in canonical order,
/// and `held` keeps the rest, which all sort later.
template <typename Record, typename Runs, typename Emit>
void merge(std::vector<Record>& held, const std::vector<std::span<const Record>>& chunk,
           const Runs* runs, core::SimTime final_before, Emit emit) {
  std::vector<Cursor<Record>> sources;
  sources.emplace_back(held);
  for (const std::span<const Record> run : chunk) sources.emplace_back(run);
  if (runs != nullptr) {
    for (const auto& [offset, count] : runs->extents) {
      sources.emplace_back(runs->file.get(), offset, count);
    }
  }
  const auto later = [&](std::size_t a, std::size_t b) {
    return canonical_less(*sources[b].peek(), *sources[a].peek());
  };
  std::vector<std::size_t> heap;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (sources[i].peek() != nullptr) heap.push_back(i);
  }
  std::make_heap(heap.begin(), heap.end(), later);
  std::vector<Record> rest;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor<Record>& source = sources[heap.back()];
    const Record& record = *source.peek();
    if (final_before == kAll || start_of(record) < final_before) {
      emit(record);
    } else {
      rest.push_back(record);
    }
    source.pop();
    if (source.peek() != nullptr) {
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
  held = std::move(rest);
}

}  // namespace

template <typename Record>
void ChunkRecords::Runs<Record>::add(std::span<Record> records) {
  const std::vector<std::span<const Record>> runs = split_runs(records);
  if (!file) file.reset(std::tmpfile());
  if (!file || std::fseek(file.get(), 0, SEEK_END) != 0 ||
      std::fwrite(records.data(), sizeof(Record), records.size(), file.get()) !=
          records.size()) {
    throw std::runtime_error("cannot write a sorted trace run to a temporary file");
  }
  const std::uint64_t offset =
      extents.empty() ? 0 : extents.back().first + extents.back().second;
  for (const std::span<const Record> run : runs) {
    extents.emplace_back(offset + static_cast<std::uint64_t>(run.data() - records.data()),
                         run.size());
  }
}

void ChunkRecords::arm(obs::Hub& chunk, const obs::Hub& target) {
  if (target.event_sink) {
    chunk.tracer.set_overflow(
        [this](std::span<obs::TraceEvent> events) { event_runs_.add(events); });
  }
  bank_spans_ = static_cast<bool>(target.span_sink);
}

void ChunkRecords::take_spans(obs::span::SpanStore& store) {
  // Store ids run 1..n in begin order, so the chunk-wide begin index of a
  // span is the count taken before it plus its id.
  const auto key = [&](obs::span::SpanId id) {
    return static_cast<std::uint64_t>(chunk_) << 32 | (spans_taken_ + id);
  };
  for (obs::span::SpanRecord r : store.spans()) {
    r.id = key(r.id);
    if (r.parent != obs::span::kNoSpan) r.parent = key(r.parent);
    spans_.push_back(r);
  }
  spans_taken_ += store.size();
  span_dropped_ += store.dropped();
  span_suppressed_ += store.suppressed();
  if (bank_spans_ && spans_.size() >= store.capacity()) {
    span_runs_.add(std::span(spans_));
    spans_.clear();
  }
  store.clear();
}

CanonicalStream::CanonicalStream(obs::Hub& hub)
    : hub_(hub), next_id_(static_cast<obs::span::SpanId>(hub.spans.size()) + 1) {}

void CanonicalStream::commit_events(obs::Tracer& ring, ChunkRecords& chunk,
                                    core::SimTime final_before) {
  std::vector<std::span<const obs::TraceEvent>> runs = split_runs(ring.retained());
  for (const auto run : split_runs(std::span(pending_))) runs.push_back(run);
  merge(held_events_, runs, &chunk.event_runs_, final_before,
        [&](const obs::TraceEvent& e) {
          if (hub_.event_sink) {
            hub_.event_sink(e);
          } else {
            hub_.tracer.record(e.ts, e.category, e.kind, e.name, e.id, e.value);
          }
        });
  pending_.clear();
  hub_.tracer.add_dropped(ring.dropped());
}

void CanonicalStream::commit_spans(ChunkRecords& chunk, core::SimTime final_before) {
  merge(held_spans_, split_runs(std::span(chunk.spans_)), &chunk.span_runs_, final_before,
        [&](const obs::span::SpanRecord& r) { emit_span(r); });
  flush_group();
  hub_.spans.add_refused(chunk.span_dropped_, chunk.span_suppressed_);
  // Held spans name parents emitted since the oldest key they hold; later
  // chunks' spans only name keys of their own chunk.
  std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
  for (const obs::span::SpanRecord& r : held_spans_) {
    oldest = std::min(oldest, r.parent != obs::span::kNoSpan ? r.parent : r.id);
  }
  ids_.erase(ids_.begin(), ids_.lower_bound(oldest));
}

void CanonicalStream::finish() {
  obs::Tracer no_ring(1);
  ChunkRecords none;
  commit_events(no_ring, none, kAll);
  commit_spans(none, kAll);
}

void CanonicalStream::emit_span(const obs::span::SpanRecord& record) {
  if (!group_.empty() && group_.front().start != record.start) flush_group();
  ids_.emplace(record.id, next_id_++);
  group_.push_back(record);
}

void CanonicalStream::flush_group() {
  for (obs::span::SpanRecord& r : group_) {
    r.id = ids_.at(r.id);
    if (r.parent != obs::span::kNoSpan) {
      const auto it = ids_.find(r.parent);
      r.parent = it == ids_.end() ? obs::span::kNoSpan : it->second;
    }
    if (hub_.span_sink) {
      hub_.span_sink(r);
    } else {
      hub_.spans.append(r);
    }
  }
  group_.clear();
}

}  // namespace swiftest::deploy
