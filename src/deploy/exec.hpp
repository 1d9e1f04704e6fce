// The thread pool lives in exec/exec.hpp. perfbench/src/ledger.cpp still
// spells it deploy::run_tasks; these aliases keep that compiling until the
// benchmark moves to the exec:: names.
#pragma once

#include "exec/exec.hpp"

namespace swiftest::deploy {

using exec::resolve_jobs;
using exec::run_tasks;

}  // namespace swiftest::deploy
