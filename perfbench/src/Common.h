//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing of the perfbench program: options, clocks, sample
/// statistics and the result record every workload fills in.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where the traced run writes its spans (empty = do not write).
  std::string TraceOut;
};

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time this process has used, in nanoseconds.
uint64_t processCpuNs();

/// Nanoseconds since this process started (its first clock read in main).
uint64_t sinceProcessStartNs();
void markProcessStart();

/// \name Sample statistics. The vectors are taken by value: percentile
/// selection reorders them.
/// @{
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 0.5);
}
double geomean(const std::vector<double> &V);
/// Median of per-window percentiles: \p Samples is cut into \p Windows
/// consecutive slices, each gets its own \p P percentile, and the median
/// of those is returned. One stalled window then moves the figure by one
/// rank instead of dominating it.
double windowedPercentile(const std::vector<double> &Samples, double P,
                          unsigned Windows);
/// @}

/// Peak resident set size (VmHWM) of this process in MiB; 0 when
/// unreadable.
double peakRssMiB();

/// One workload run's outcome. Metric names and units must match
/// BENCHMARK.json; run.py checks them.
///
/// Attempted and Failed count checked operations: each output check, and
/// the timed series of one module or kernel in one mode (it fails if any of
/// its calls failed). They are the base of `ok_ratio`, so one wrong output
/// weighs as much as a failed series, not one call among millions.
struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  struct Metric {
    double Value = 0;
    std::string Unit;
  };
  std::map<std::string, Metric> Metrics;
  /// Facts that identify the run (rates, corpus sizes, digests); stored
  /// with the result, not compared.
  std::map<std::string, std::string> Stamp;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  /// Reports a failure on stderr and marks the run incorrect; the
  /// operation it belongs to is counted by count().
  void fail(const std::string &What);
  /// Counts one checked operation.
  void count(bool Ok) {
    ++Attempted;
    Failed += !Ok;
  }
  std::string toJson() const;
};

/// Every workload sets up several times and reports one figure over them
/// as `setup_s` (compile: the median, run: the fastest); the first set-up
/// is charged from process start, so loading and static initialisation
/// count in it.
int runCompile(const Options &O, Result &R);
int runRun(const Options &O, Result &R);

/// The compile service's request path in-process: a seeded stream (90%
/// hot-pool hits, 10% fresh compiles) through decodeRequest,
/// ShardedService::shardFor and compileSync, buildResponse and
/// encodeResponse, each call in a span; sets the service.*_us stage
/// medians and self_us.service. The compile workload's traced run calls it.
void measureServicePath(uint64_t Seed, Result &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
