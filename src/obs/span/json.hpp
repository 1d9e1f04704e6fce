// Span JSON: the serialized form of a SpanStore, and its reader.
//
// One document per run:
//
//   {"spans": [
//     {"id": 1, "parent": 0, "trace": 123, "name": "swiftest.test",
//      "cat": "protocol", "start": 0, "end": 1200000000, "closed": true,
//      "attrs": {"rate_mbps": 25.0}},
//     ...
//   ], "open": 0, "dropped": 0}
//
// Spans are emitted in begin order with obs/json's deterministic number
// rendering, so same-seed runs produce byte-identical files. The reader
// (parse_spans_json) is the input side of `swiftest-cli trace analyze`: it
// produces owning SpanData values (names as std::string) that the analyzer
// consumes, tolerating unknown fields and out-of-order ids.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/time.hpp"
#include "obs/span/span.hpp"

namespace swiftest::obs::span {

/// Owning, source-independent span value: what the analyzer works on,
/// whether the spans came from a live SpanStore or a parsed JSON file.
struct SpanData {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace_id = 0;
  std::string name;
  std::string category;
  core::SimTime start = 0;
  core::SimTime end = 0;
  bool closed = false;
  std::vector<std::pair<std::string, double>> attrs;
};

/// Copies a live store's spans into the analyzer's owning form.
[[nodiscard]] std::vector<SpanData> to_span_data(const SpanStore& store);

/// The one span renderer: writes a span document one record at a time — the
/// header when built, each record as the next "spans" entry, the footer on
/// finish().
class SpanWriter {
 public:
  /// `out` may be null: the writer then only counts.
  explicit SpanWriter(std::ostream* out);

  void write(const SpanRecord& record);
  /// Closes the document: the spans still open and the `dropped` count.
  void finish(std::uint64_t dropped);

  [[nodiscard]] std::uint64_t spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t open() const noexcept { return open_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::ostream* out_;
  std::string line_;
  std::uint64_t spans_ = 0;
  std::uint64_t open_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Writes the span document for a store (deterministic bytes).
void write_spans_json(const SpanStore& store, std::ostream& out);

/// Parses a span document. Returns nullopt (with a reason in `error`, when
/// provided) on malformed JSON or a document without a "spans" array.
[[nodiscard]] std::optional<std::vector<SpanData>> parse_spans_json(
    std::string_view text, std::string* error = nullptr);

/// Loads and parses a span document from disk.
[[nodiscard]] std::optional<std::vector<SpanData>> load_spans_file(
    const std::string& path, std::string* error = nullptr);

/// Manifest summary of a finished span document: spans/open/dropped counts.
[[nodiscard]] std::vector<std::pair<std::string, double>> summarize_for_manifest(
    const SpanWriter& writer);

}  // namespace swiftest::obs::span
