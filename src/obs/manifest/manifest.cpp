#include "obs/manifest/manifest.hpp"

#include <algorithm>
#include <array>
#include <ostream>

#include "obs/json.hpp"

namespace swiftest::obs::manifest {
namespace {

void append_value_object(std::string& out, const ValueList& values) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : values) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, key);
    out += ':';
    append_double(out, value);
  }
  out += '}';
}

bool require_string(const JsonValue& line, std::string_view key,
                    std::string* out, std::string* error, std::size_t line_no) {
  const JsonValue* member = line.get(key);
  if (member == nullptr || member->type() != JsonValue::Type::kString) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": missing string field \"" +
               std::string(key) + "\"";
    }
    return false;
  }
  *out = member->as_string();
  return true;
}

bool require_number(const JsonValue& line, std::string_view key,
                    double* out, std::string* error, std::size_t line_no) {
  const JsonValue* member = line.get(key);
  if (member == nullptr || member->type() != JsonValue::Type::kNumber) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": missing number field \"" +
               std::string(key) + "\"";
    }
    return false;
  }
  *out = member->as_number();
  return true;
}

}  // namespace

const ArtifactRecord* RunManifest::find_artifact(std::string_view name) const {
  for (const ArtifactRecord& artifact : artifacts) {
    if (artifact.name == name) return &artifact;
  }
  return nullptr;
}

const ValueList* RunManifest::find_summary(std::string_view layer) const {
  const auto it = summaries.find(std::string(layer));
  return it == summaries.end() ? nullptr : &it->second;
}

std::optional<std::string> RunManifest::config_value(std::string_view key) const {
  for (const auto& [config_key, value] : config) {
    if (config_key == key) return value;
  }
  return std::nullopt;
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

namespace {

std::string hash_text(std::uint64_t hash) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "fnv1a64:";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kHex[(hash >> shift) & 0xf];
  }
  return out;
}

}  // namespace

std::string content_hash(std::string_view bytes) { return hash_text(fnv1a64(bytes)); }

void ArtifactDigest::update(std::string_view block) {
  bytes += block.size();
  rows += static_cast<std::uint64_t>(std::count(block.begin(), block.end(), '\n'));
  hash = fnv1a64(block, hash);
}

ArtifactRecord ArtifactDigest::record(std::string name, std::string path) const {
  ArtifactRecord out;
  out.name = std::move(name);
  out.path = std::move(path);
  out.bytes = bytes;
  out.rows = rows;
  out.hash = hash_text(hash);
  return out;
}

void write_manifest_jsonl(const RunManifest& manifest, std::ostream& out) {
  std::string line;
  line.reserve(256);

  line = "{\"type\":\"manifest\",\"version\":";
  append_u64(line, static_cast<std::uint64_t>(manifest.version));
  line += ",\"tool\":";
  append_json_string(line, manifest.tool);
  line += ",\"command\":";
  append_json_string(line, manifest.command);
  line += ",\"build\":";
  append_json_string(line, manifest.build);
  line += "}\n";
  out << line;

  for (const auto& [key, value] : manifest.config) {
    line = "{\"type\":\"config\",\"key\":";
    append_json_string(line, key);
    line += ",\"value\":";
    append_json_string(line, value);
    line += "}\n";
    out << line;
  }

  for (const ArtifactRecord& artifact : manifest.artifacts) {
    line = "{\"type\":\"artifact\",\"name\":";
    append_json_string(line, artifact.name);
    line += ",\"path\":";
    append_json_string(line, artifact.path);
    line += ",\"bytes\":";
    append_u64(line, artifact.bytes);
    line += ",\"rows\":";
    append_u64(line, artifact.rows);
    line += ",\"hash\":";
    append_json_string(line, artifact.hash);
    line += "}\n";
    out << line;
  }

  for (const auto& [layer, values] : manifest.summaries) {
    line = "{\"type\":\"summary\",\"layer\":";
    append_json_string(line, layer);
    line += ",\"values\":";
    append_value_object(line, values);
    line += "}\n";
    out << line;
  }

  for (const auto& [name, value] : manifest.bench) {
    line = "{\"type\":\"bench\",\"name\":";
    append_json_string(line, name);
    line += ",\"value\":";
    append_double(line, value);
    line += "}\n";
    out << line;
  }

  for (const SloVerdict& slo : manifest.slos) {
    line = "{\"type\":\"slo\",\"name\":";
    append_json_string(line, slo.name);
    line += ",\"dimension\":";
    append_json_string(line, slo.dimension);
    line += ",\"stat\":";
    append_json_string(line, slo.stat);
    line += ",\"observed\":";
    append_double(line, slo.observed);
    line += ",\"status\":";
    append_json_string(line, slo.status);
    line += "}\n";
    out << line;
  }

  for (const auto& [key, value] : manifest.host) {
    line = "{\"type\":\"host\",\"key\":";
    append_json_string(line, key);
    line += ",\"value\":";
    append_double(line, value);
    line += "}\n";
    out << line;
  }
}

std::optional<RunManifest> parse_manifest_jsonl(std::string_view text,
                                                std::string* error) {
  RunManifest manifest;
  bool saw_header = false;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view raw = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (raw.empty()) continue;

    std::string parse_error;
    const std::optional<JsonValue> parsed =
        parse_json(raw, &parse_error);
    if (!parsed.has_value() || !parsed->is_object()) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " +
                 (parsed.has_value() ? "not a JSON object" : parse_error);
      }
      return std::nullopt;
    }
    const JsonValue& line = *parsed;
    const std::string type = line.get_string("type", "");

    if (type == "manifest") {
      saw_header = true;
      double version = 0.0;
      if (!require_number(line, "version", &version, error, line_no) ||
          !require_string(line, "tool", &manifest.tool, error, line_no) ||
          !require_string(line, "command", &manifest.command, error, line_no) ||
          !require_string(line, "build", &manifest.build, error, line_no)) {
        return std::nullopt;
      }
      manifest.version = static_cast<int>(version);
    } else if (type == "config") {
      std::string key;
      std::string value;
      if (!require_string(line, "key", &key, error, line_no) ||
          !require_string(line, "value", &value, error, line_no)) {
        return std::nullopt;
      }
      manifest.config.emplace_back(std::move(key), std::move(value));
    } else if (type == "artifact") {
      ArtifactRecord artifact;
      double bytes = 0.0;
      double rows = 0.0;
      if (!require_string(line, "name", &artifact.name, error, line_no) ||
          !require_string(line, "path", &artifact.path, error, line_no) ||
          !require_number(line, "bytes", &bytes, error, line_no) ||
          !require_number(line, "rows", &rows, error, line_no) ||
          !require_string(line, "hash", &artifact.hash, error, line_no)) {
        return std::nullopt;
      }
      artifact.bytes = line.get("bytes")->as_u64();
      artifact.rows = line.get("rows")->as_u64();
      manifest.artifacts.push_back(std::move(artifact));
    } else if (type == "summary") {
      std::string layer;
      if (!require_string(line, "layer", &layer, error, line_no)) {
        return std::nullopt;
      }
      const JsonValue* values = line.get("values");
      if (values == nullptr || !values->is_object()) {
        if (error != nullptr) {
          *error = "line " + std::to_string(line_no) +
                   ": missing object field \"values\"";
        }
        return std::nullopt;
      }
      ValueList& list = manifest.summaries[layer];
      for (const auto& [key, value] : values->members()) {
        list.emplace_back(key, value.as_number());
      }
    } else if (type == "bench") {
      std::string name;
      double value = 0.0;
      if (!require_string(line, "name", &name, error, line_no) ||
          !require_number(line, "value", &value, error, line_no)) {
        return std::nullopt;
      }
      manifest.bench.emplace_back(std::move(name), value);
    } else if (type == "slo") {
      SloVerdict slo;
      if (!require_string(line, "name", &slo.name, error, line_no) ||
          !require_string(line, "dimension", &slo.dimension, error, line_no) ||
          !require_string(line, "stat", &slo.stat, error, line_no) ||
          !require_number(line, "observed", &slo.observed, error, line_no) ||
          !require_string(line, "status", &slo.status, error, line_no)) {
        return std::nullopt;
      }
      manifest.slos.push_back(std::move(slo));
    } else if (type == "host") {
      std::string key;
      double value = 0.0;
      if (!require_string(line, "key", &key, error, line_no) ||
          !require_number(line, "value", &value, error, line_no)) {
        return std::nullopt;
      }
      manifest.host.emplace_back(std::move(key), value);
    } else {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) +
                 ": unknown manifest record type \"" + type + "\"";
      }
      return std::nullopt;
    }
  }

  if (!saw_header) {
    if (error != nullptr) *error = "missing \"manifest\" header line";
    return std::nullopt;
  }
  return manifest;
}

std::optional<RunManifest> load_manifest_file(const std::string& path,
                                              std::string* error) {
  const auto text = read_file(path, error);
  if (!text) return std::nullopt;
  return parse_manifest_jsonl(*text, error);
}

}  // namespace swiftest::obs::manifest
