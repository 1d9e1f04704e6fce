// The canonical trace stream: a fleet's trace events and spans, each emitted
// once, in content order, as soon as no later chunk can sort before it.
// Chunks commit in draw order and a test records nothing before its arrival,
// so at a commit every held record that starts before the chunk's last
// arrival second is final: it leaves — events by (ts, name, id, kind,
// category, value), spans by (start, trace, name, end, category, open
// first, begin order) and numbered 1..n — and only the ~31 s tail stays
// (DESIGN.md §12). Records go to the Hub's sinks when set, else into its
// ring and store. With sinks, a chunk ring or span buffer that fills before
// its commit writes a sorted run of raw records (names are static literals)
// to an anonymous temporary file, which the commit merges.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "obs/hub.hpp"

namespace swiftest::deploy {

/// Canonical orders; names compare by content, since one literal may have
/// several addresses. A span's id here is its begin-order key.
[[nodiscard]] bool canonical_less(const obs::TraceEvent& a,
                                  const obs::TraceEvent& b) noexcept;
[[nodiscard]] bool canonical_less(const obs::span::SpanRecord& a,
                                  const obs::span::SpanRecord& b) noexcept;

/// What one chunk hands the stream at its commit besides its ring: its
/// spans, and the sorted runs its full ring and span buffer wrote out.
class ChunkRecords {
 public:
  /// `chunk` is the chunk's draw-order index, the first half of its spans'
  /// begin-order keys.
  explicit ChunkRecords(std::size_t chunk = 0) : chunk_(chunk) {}

  /// Where `target` has an event sink, `chunk`'s full ring writes a sorted
  /// run here instead of wrapping; where it has a span sink, take_spans()
  /// writes the span buffer out once it reaches the store's capacity.
  void arm(obs::Hub& chunk, const obs::Hub& target);

  /// Moves `store`'s spans and refusal counts here and empties it.
  void take_spans(obs::span::SpanStore& store);

 private:
  friend class CanonicalStream;

  template <typename Record>
  struct Runs {
    struct Close {
      void operator()(std::FILE* file) const noexcept { std::fclose(file); }
    };
    std::unique_ptr<std::FILE, Close> file;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;  // offset, count
    void add(std::span<Record> records);
  };

  std::size_t chunk_;
  bool bank_spans_ = false;
  Runs<obs::TraceEvent> event_runs_;
  Runs<obs::span::SpanRecord> span_runs_;
  std::vector<obs::span::SpanRecord> spans_;
  std::uint64_t spans_taken_ = 0;
  std::uint64_t span_dropped_ = 0;
  std::uint64_t span_suppressed_ = 0;
};

class CanonicalStream {
 public:
  explicit CanonicalStream(obs::Hub& hub);

  /// Queues an event no chunk records (a fleet's per-window egress
  /// counters); its ts must not precede the last commit's bound.
  void add(const obs::TraceEvent& event) { pending_.push_back(event); }

  /// Takes a committed chunk's events — what `ring` holds and the runs it
  /// wrote — and emits every held event that starts before `final_before`.
  void commit_events(obs::Tracer& ring, ChunkRecords& chunk, core::SimTime final_before);
  /// The same for the chunk's spans.
  void commit_spans(ChunkRecords& chunk, core::SimTime final_before);

  /// Emits everything still held.
  void finish();

 private:
  void emit_span(const obs::span::SpanRecord& record);
  /// Emits the spans of one start, once their parents all have ids: a
  /// parent starts no later than its child, so it left in an earlier group
  /// or is in this one.
  void flush_group();

  obs::Hub& hub_;
  std::vector<obs::TraceEvent> held_events_;
  std::vector<obs::TraceEvent> pending_;
  std::vector<obs::span::SpanRecord> held_spans_;
  std::vector<obs::span::SpanRecord> group_;
  std::map<std::uint64_t, obs::span::SpanId> ids_;  // begin-order key -> emitted id
  obs::span::SpanId next_id_;
};

}  // namespace swiftest::deploy
