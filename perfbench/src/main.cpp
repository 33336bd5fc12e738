//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench: one workload run of the repository benchmark. run.py in the
/// parent directory builds this binary and is the command to use; this
/// program prints a report, then one JSON line with the metrics.
///
/// Usage:
///   perfbench --workload=compile|run --seed=N --seconds=S
///             [--trace] [--trace-out=FILE]
///
/// Exit code: 0 when the run completed (failed operations are reported in
/// the JSON line), 2 on usage errors, 1 when the workload could not run.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "jit/CPUFeatures.h"
#include "support/CommandLine.h"

#include <cstdio>
#include <thread>

using namespace perfbench;

int main(int Argc, char **Argv) {
  markProcessStart();
  snslp::CommandLine CL(Argc, Argv);
  Options O;
  O.Workload = CL.getString("workload");
  O.Seed = static_cast<uint64_t>(CL.getInt("seed", 1));
  O.Seconds = static_cast<double>(CL.getInt("seconds", 10));
  O.Trace = CL.getBool("trace");
  O.TraceOut = CL.getString("trace-out");
  if (O.Seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  Result R;
  int Rc;
  if (O.Workload == "compile")
    Rc = runCompile(O, R);
  else if (O.Workload == "run")
    Rc = runRun(O, R);
  else {
    std::fprintf(stderr, "usage: perfbench --workload=compile|run "
                         "--seed=N --seconds=S [--trace] [--trace-out=FILE]\n");
    return 2;
  }
  R.Stamp["isa"] = snslp::hostCPUFeatures().isaString();
  R.Stamp["nproc"] = std::to_string(std::thread::hardware_concurrency());
  if (!O.Trace && R.Attempted > 0)
    R.set("ok_ratio",
          static_cast<double>(R.Attempted - R.Failed) /
              static_cast<double>(R.Attempted),
          "ratio");
  std::printf("%s\n", R.toJson().c_str());
  return Rc;
}
