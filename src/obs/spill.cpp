#include "obs/spill.hpp"

#include <cstdio>
#include <fstream>

#include "obs/export.hpp"
#include "obs/span/json.hpp"

namespace swiftest::obs {

SpillWriter::SpillWriter(std::string dir, std::string stream, std::size_t shard)
    : dir_(std::move(dir)), stream_(std::move(stream)), shard_(shard) {}

std::string SpillWriter::segment_path(std::size_t segment) const {
  char name[96];
  std::snprintf(name, sizeof(name), "%s.shard%04zu.seg%04zu.jsonl",
                stream_.c_str(), shard_, segment);
  return dir_ + "/" + name;
}

void SpillWriter::renumber(std::size_t shard) {
  shard_ = shard;
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    std::string path = segment_path(i);
    if (std::rename(paths_[i].c_str(), path.c_str()) != 0) {
      ok_ = false;
      continue;
    }
    paths_[i] = std::move(path);
  }
}

void SpillWriter::write_segment(const std::string& body) {
  const std::string path = segment_path(paths_.size());
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    ok_ = false;
    return;
  }
  file << body;
  if (!file) {
    ok_ = false;
    return;
  }
  bytes_ += body.size();
  paths_.push_back(path);
}

void SpillWriter::write_trace_segment(const TraceEvent* events, std::size_t count) {
  std::string body;
  body.reserve(count * 96);
  for (std::size_t i = 0; i < count; ++i) {
    append_trace_jsonl_line(body, events[i]);
  }
  write_segment(body);
}

void SpillWriter::write_span_segment(const span::SpanRecord* spans,
                                     std::size_t count) {
  std::string body;
  body.reserve(count * 160);
  for (std::size_t i = 0; i < count; ++i) {
    span::append_span_json(body, spans[i]);
    body += '\n';
  }
  write_segment(body);
}

bool concat_segments(const std::vector<std::string>& segment_paths,
                     const std::string& out_path, std::string* error) {
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot write " + out_path;
    return false;
  }
  for (const std::string& path : segment_paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      if (error != nullptr) *error = "cannot read " + path;
      return false;
    }
    out << in.rdbuf();
  }
  return static_cast<bool>(out);
}

std::vector<std::pair<std::string, double>> summarize_for_manifest(
    const SpillWriter& writer) {
  return {
      {"segments", static_cast<double>(writer.segments())},
      {"bytes", static_cast<double>(writer.bytes_written())},
      {"ok", writer.ok() ? 1.0 : 0.0},
  };
}

}  // namespace swiftest::obs
