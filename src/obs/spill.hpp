// Rotating artifact spill: full rings flush to disk instead of dropping.
//
// A Tracer ring or SpanStore that fills mid-run historically overwrote or
// refused data. A SpillWriter gives each shard's stores a place to rotate
// into instead: every flush writes one JSONL *segment* file
// (`<stream>.shard0003.seg0007.jsonl`) under the spill directory, in the
// same line format as the corresponding exporter, so segments concatenate
// with the final in-memory remainder into one complete stream. Segment
// content and naming are deterministic (sim-time-stamped events, shard and
// segment indices — never wall clock or thread ids), and the merge stage
// concatenates segments in (shard, segment) order, so the combined spill
// file is independent of `--jobs`.
//
// The full event stream of a spilled run is
//   <stream>.spill.jsonl ++ the exported in-memory remainder
// (e.g. trace.spill.jsonl followed by the trace.jsonl artifact).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/span/span.hpp"
#include "obs/trace.hpp"

namespace swiftest::obs {

class SpillWriter {
 public:
  /// Segments land in `dir` (which must exist) as
  /// `<stream>.shard%04u.seg%04u.jsonl`.
  SpillWriter(std::string dir, std::string stream, std::size_t shard);

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// Writes `count` trace events as one JSONL segment (write_trace_jsonl's
  /// line format).
  void write_trace_segment(const TraceEvent* events, std::size_t count);

  /// Writes `count` span records as one JSONL segment (one span-document
  /// entry per line).
  void write_span_segment(const span::SpanRecord* spans, std::size_t count);

  /// Moves the writer to `shard`: renames the segments written so far to
  /// that shard's names and names later ones after it. For a writer whose
  /// place in the (shard, segment) order is only known once it has run.
  void renumber(std::size_t shard);

  [[nodiscard]] std::size_t segments() const noexcept { return paths_.size(); }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_; }
  /// False after any segment failed to open or write.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// Segment file paths in write (= rotation) order.
  [[nodiscard]] const std::vector<std::string>& segment_paths() const noexcept {
    return paths_;
  }

 private:
  void write_segment(const std::string& body);
  [[nodiscard]] std::string segment_path(std::size_t segment) const;

  std::string dir_;
  std::string stream_;
  std::size_t shard_;
  std::vector<std::string> paths_;
  std::uint64_t bytes_ = 0;
  bool ok_ = true;
};

/// Concatenates segment files in the given order into `out_path`. Returns
/// false (with a reason in `error`, when provided) if any file cannot be
/// read or the output cannot be written.
bool concat_segments(const std::vector<std::string>& segment_paths,
                     const std::string& out_path, std::string* error = nullptr);

/// Manifest summary of one spill writer: segments rotated, bytes written,
/// and whether every segment landed intact.
[[nodiscard]] std::vector<std::pair<std::string, double>> summarize_for_manifest(
    const SpillWriter& writer);

}  // namespace swiftest::obs
