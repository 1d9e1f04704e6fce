// swiftest-cli: command-line front end over the library.
//
// Subcommands:
//   campaign --tests N [--year Y] [--seed S] --out FILE   generate a CSV campaign
//   report   --in FILE                                     the §3 analysis report
//   test     --rate MBPS [--tech 4g|5g|wifi4|wifi5|wifi6] [--wire] [--seed S]
//                                                          one simulated bandwidth test
//   plan     [--tests-per-day N] [--regional]              §5.2 workload + purchase ILP
//   fleet    [--servers N] [--days D] [--tests-per-day N]  Fig 26 utilization replay
//
// test/run/fleet write their artifacts with --obs-dir DIR --obs NAME[,NAME...]
// (plus DIR/manifest.jsonl); `swiftest-cli help` lists the names.
//
// The core is a pure function over (args, output stream) so that it is unit
// testable; the binary in swiftest_cli.cpp is a thin wrapper.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

namespace swiftest::cli {

/// Runs one CLI invocation. `args` excludes the program name. Returns the
/// process exit code; all output (including usage errors) goes to `out`.
int run_cli(std::span<const std::string> args, std::ostream& out);

}  // namespace swiftest::cli
