// perfbench: runs one benchmark workload and prints its report as the
// last line of stdout. perfbench/run.py builds and invokes it; see
// perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload fleet_packet --seed 3 --seconds 10 --trace 0
//             [--tiny] [--out-dir DIR]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "report.hpp"

namespace perfbench {
namespace {

void append_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += failures_.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, m] : metrics_) {
    out += sep;
    append_string(out, name);
    out += ": {\"value\": ";
    append_number(out, m.value);
    out += ", \"unit\": ";
    append_string(out, m.unit);
    out += ", \"source\": ";
    append_string(out, m.source);
    out += "}";
    sep = ", ";
  }
  out += "}, \"info\": {";
  sep = "";
  for (const auto& [key, v] : numbers_) {
    out += sep;
    append_string(out, key);
    out += ": ";
    append_number(out, v);
    sep = ", ";
  }
  for (const auto& [key, v] : strings_) {
    out += sep;
    append_string(out, key);
    out += ": ";
    append_string(out, v);
    sep = ", ";
  }
  out += "}, \"check_failures\": [";
  sep = "";
  for (const auto& f : failures_) {
    out += sep;
    append_string(out, f);
    sep = ", ";
  }
  out += "]}";
  return out;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: unknown or incomplete argument '%s'\n",
                   argv[i]);
      return 2;
    }
  }
  perfbench::Report report;
  try {
    perfbench::run_workload(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}
