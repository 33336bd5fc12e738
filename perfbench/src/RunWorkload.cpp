//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `run` workload: warm execution of generated code on one thread. The
/// set-up compiles every registry kernel once under O3 and SN-SLP and
/// builds its engine; the timed loop then calls the kernels on the native
/// engine (SN-SLP primary, O3 secondary), on the bytecode engine, and runs
/// each kernel's C++ Kernel::Reference on the same buffers, the hardware
/// ceiling. The generated code does all the work; the vectorizer none.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "driver/KernelRunner.h"
#include "interp/ExecutionEngine.h"
#include "kernels/Kernel.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>

using namespace snslp;

namespace perfbench {
namespace {

/// Calls per (kernel, variant) batch; buffers are restored before each
/// batch so repeated in-place updates cannot drift into slow values.
constexpr unsigned kCallsPerBatch = 8;

/// Set-ups per run; `setup_s` is the fastest of them.
constexpr unsigned kSetUps = 41;

const VectorizerMode kModes[] = {VectorizerMode::O3, VectorizerMode::SNSLP};
enum ModeIdx { O3 = 0, SN = 1 };

/// What one batch runs: an engine over one mode, or the C++ reference.
enum Variant { NativeO3, NativeSN, BytecodeO3, BytecodeSN, Cxx, NumVariants };
const char *kSpanNames[NumVariants] = {"jit.run", "jit.run", "interp.run",
                                       "interp.run", "kernels.reference"};

struct KernelBench {
  const Kernel *K = nullptr;
  KernelRunner Runner;
  CompiledKernel CK[2];
  std::unique_ptr<ExecutionEngine> Engine[2];
  std::unique_ptr<KernelData> Data, Pristine;
  std::vector<RTValue> Args;
  /// Per-call nanoseconds per variant, in time order.
  std::vector<double> Ns[NumVariants];
  /// Whether every call of a variant succeeded: one checked operation each.
  bool Ok[NumVariants] = {true, true, true, true, true};
  double Cycles[2] = {0, 0};
  uint64_t Steps = 0, VectorSteps = 0;

  void restore() {
    for (size_t I = 0; I < Data->getNumBuffers(); ++I)
      std::memcpy(Data->getPointer(I), Pristine->getPointer(I),
                  Data->getByteSize(I));
  }
};

std::vector<std::unique_ptr<KernelBench>> setUp(uint64_t Seed) {
  std::vector<std::unique_ptr<KernelBench>> Benches;
  TargetCostModel TCM;
  for (const Kernel &K : kernelRegistry()) {
    auto B = std::make_unique<KernelBench>();
    B->K = &K;
    B->Data = std::make_unique<KernelData>(K.Buffers, K.N, Seed);
    B->Pristine = std::make_unique<KernelData>(*B->Data);
    for (size_t I = 0; I < B->Data->getNumBuffers(); ++I)
      B->Args.push_back(argPointer(B->Data->getPointer(I)));
    B->Args.push_back(argInt64(static_cast<int64_t>(K.N)));
    for (int M : {O3, SN}) {
      B->CK[M] = B->Runner.compile(K, kModes[M]);
      B->Engine[M] = std::make_unique<ExecutionEngine>(
          *B->CK[M].F,
          [TCM](const Instruction &I) { return TCM.executionCycles(I); });
      for (size_t I = 0; I < B->Data->getNumBuffers(); ++I)
        B->Engine[M]->addMemoryRange(B->Data->getPointer(I),
                                     B->Data->getByteSize(I));
      // The JIT compile, eagerly, and one call per engine so first-call
      // costs stay in the set-up.
      B->Engine[M]->isNativeAvailable();
      B->Engine[M]->run(EngineKind::Native, B->Args);
      B->Engine[M]->run(EngineKind::Bytecode, B->Args);
    }
    B->restore();
    Benches.push_back(std::move(B));
  }
  return Benches;
}

/// One batch of \p Variant on \p B; stops at a failed call. Returns the
/// number of calls made.
unsigned runBatch(KernelBench &B, Variant V, Tracer &T, uint32_t Req,
                  Result &R) {
  B.restore();
  for (unsigned C = 0; C < kCallsPerBatch; ++C) {
    auto Sp = T.span(kSpanNames[V], Req);
    const uint64_t T0 = nowNs();
    if (V == Cxx) {
      B.K->Reference(*B.Data);
      B.Ns[V].push_back(static_cast<double>(nowNs() - T0));
      continue;
    }
    const int M = V == NativeO3 || V == BytecodeO3 ? O3 : SN;
    const bool Native = V == NativeO3 || V == NativeSN;
    ExecutionResult Res = B.Engine[M]->run(
        Native ? EngineKind::Native : EngineKind::Bytecode, B.Args);
    B.Ns[V].push_back(static_cast<double>(nowNs() - T0));
    if (!Res.Ok) {
      if (B.Ok[V])
        R.fail(B.K->Name + "/" + getModeName(kModes[M]) + ": " + Res.Error);
      B.Ok[V] = false;
      return C + 1;
    }
    if (!Native) {
      // Simulated cycles are a deterministic count: every call must agree.
      if (B.Cycles[M] != 0 && B.Cycles[M] != Res.Cycles && B.Ok[V]) {
        R.fail(B.K->Name + "/" + getModeName(kModes[M]) +
               ": simulated cycles changed between calls");
        B.Ok[V] = false;
      }
      B.Cycles[M] = Res.Cycles;
      if (M == SN) {
        B.Steps = Res.StepsExecuted;
        B.VectorSteps = Res.VectorSteps;
      }
    }
  }
  return kCallsPerBatch;
}

/// Runs rounds over every kernel and variant until \p Seconds pass, and
/// \p BetweenRounds (when set) after each round. Returns the number of
/// calls made.
uint64_t timedLoop(std::vector<std::unique_ptr<KernelBench>> &Benches,
                   double Seconds, Tracer &T, Result &R,
                   const std::function<void()> &BetweenRounds = {}) {
  const uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  uint64_t Calls = 0;
  do {
    for (size_t I = 0; I < Benches.size(); ++I)
      for (int V = 0; V < NumVariants; ++V)
        Calls += runBatch(*Benches[I], static_cast<Variant>(V), T,
                          static_cast<uint32_t>(I), R);
    if (BetweenRounds)
      BetweenRounds();
  } while (nowNs() < Deadline);
  return Calls;
}

/// Native outputs against Kernel::Reference (KernelRunner::check covers
/// the bytecode engine).
bool checkNative(KernelBench &B, int M, uint64_t Seed, std::string &Msg) {
  KernelData Expected(B.K->Buffers, B.K->N, Seed);
  B.K->Reference(Expected);
  B.restore();
  ExecutionResult Res = B.Engine[M]->run(EngineKind::Native, B.Args);
  if (!Res.Ok) {
    Msg = Res.Error;
    return false;
  }
  return KernelData::outputsMatch(Expected, *B.Data, B.K->RelTol, &Msg);
}

} // namespace

int runRun(const Options &O, Result &R) {
  // The first set-up, charged from process start, builds what the loop
  // uses. The other kSetUps - 1 are made between rounds of the timed loop,
  // spread evenly over it, and thrown away. One set-up takes a few ms and
  // a shared host's vCPUs stay in a fast or a slow state for seconds to
  // minutes: set-ups made back to back all land in one state, and even the
  // median of spread ones follows a state that lasts the whole run (45%
  // slower in one of eight runs, where the fastest set-up was 9% slower).
  std::vector<std::unique_ptr<KernelBench>> Benches = setUp(O.Seed);
  std::vector<double> SetUpS = {
      static_cast<double>(sinceProcessStartNs()) / 1e9};
  // Read before the timed loop: what the compiled kernels, engines and
  // buffers take, not the benchmark's own sample arrays (whose size
  // follows the host's speed).
  const double RssMiB = peakRssMiB();

  const double LoopSeconds = O.Trace ? O.Seconds / 2 : O.Seconds;
  const uint64_t SetUpEveryNs =
      static_cast<uint64_t>(LoopSeconds * 1e9 / kSetUps);
  uint64_t NextSetUpNs = nowNs() + SetUpEveryNs;
  uint64_t SetUpCpuNs = 0;
  auto SetUpAgain = [&] {
    if (nowNs() < NextSetUpNs || SetUpS.size() >= kSetUps)
      return;
    const uint64_t T0 = nowNs(), Cpu0 = processCpuNs();
    setUp(O.Seed);
    SetUpS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    SetUpCpuNs += processCpuNs() - Cpu0;
    NextSetUpNs = nowNs() + SetUpEveryNs;
  };

  Tracer T;
  const uint64_t CpuStart = processCpuNs();
  const uint64_t Calls = timedLoop(Benches, LoopSeconds, T, R, SetUpAgain);
  const double CpuUsPerCall =
      static_cast<double>(processCpuNs() - CpuStart - SetUpCpuNs) / 1e3 /
      static_cast<double>(Calls);
  R.set("setup_s", *std::min_element(SetUpS.begin(), SetUpS.end()), "s");

  // Per-kernel medians of the untraced loop.
  auto Med = [](const KernelBench &B, int V) { return median(B.Ns[V]); };
  std::vector<double> PerS[2], P50[2], P99[2], VsCxx[2];
  double WorstVsBytecode = 1e300;
  std::string WorstName;
  std::printf("%-16s %-6s %12s %12s %12s %10s %10s\n", "kernel", "mode",
              "native ns/it", "bytecode", "C++", "nat/byte", "nat/C++");
  for (const auto &BP : Benches) {
    const KernelBench &B = *BP;
    const double Items = static_cast<double>(B.K->N);
    const double CxxNs = Med(B, Cxx);
    for (int M : {O3, SN}) {
      const int NV = M == O3 ? NativeO3 : NativeSN;
      const int BV = M == O3 ? BytecodeO3 : BytecodeSN;
      const double NatNs = Med(B, NV), ByteNs = Med(B, BV);
      // Items per second from the fastest call. On a shared host the vCPUs
      // run in a fast and a slow state, about 1.6x apart, for seconds at a
      // time; the median call follows that state, the fastest one barely
      // (README.md has the measurements).
      PerS[M].push_back(
          Items / (*std::min_element(B.Ns[NV].begin(), B.Ns[NV].end()) / 1e9));
      P50[M].push_back(windowedPercentile(B.Ns[NV], 0.5, 5) / 1e6);
      P99[M].push_back(windowedPercentile(B.Ns[NV], 0.99, 5) / 1e6);
      VsCxx[M].push_back(NatNs / CxxNs);
      if (ByteNs / NatNs < WorstVsBytecode) {
        WorstVsBytecode = ByteNs / NatNs;
        WorstName = B.K->Name + "." + getModeName(kModes[M]);
      }
      // The per-kernel floor report: a row where native is slower than
      // bytecode is flagged, not failed.
      std::printf("%-16s %-6s %12.2f %12.2f %12.2f %9.2fx %9.2fx%s\n",
                  B.K->Name.c_str(), getModeName(kModes[M]), NatNs / Items,
                  ByteNs / Items, CxxNs / Items, NatNs / ByteNs,
                  NatNs / CxxNs,
                  NatNs > ByteNs ? "  <-- native slower than bytecode" : "");
    }
  }
  std::printf("worst native vs bytecode: %s (bytecode/native %.3f)\n",
              WorstName.c_str(), WorstVsBytecode);

  // Untimed output checks.
  for (auto &BP : Benches) {
    for (int M : {O3, SN}) {
      const std::string What =
          BP->K->Name + "/" + getModeName(kModes[M]) + ": ";
      std::string Msg;
      const bool BytecodeOk = BP->Runner.check(BP->CK[M], O.Seed, &Msg);
      if (!BytecodeOk)
        R.fail("bytecode output of " + What + Msg);
      R.count(BytecodeOk);
      const bool NativeOk = checkNative(*BP, M, O.Seed, Msg);
      if (!NativeOk)
        R.fail("native output of " + What + Msg);
      R.count(NativeOk);
    }
  }

  std::vector<double> CycleSpeedup, VectorSpeedup;
  uint64_t Steps = 0, VectorSteps = 0;
  for (const auto &BP : Benches) {
    CycleSpeedup.push_back(BP->Cycles[O3] / BP->Cycles[SN]);
    VectorSpeedup.push_back(Med(*BP, NativeO3) / Med(*BP, NativeSN));
    Steps += BP->Steps;
    VectorSteps += BP->VectorSteps;
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", geomean(CycleSpeedup));
  std::printf("run.sim_cycle_speedup: %s\n", Buf);
  R.Stamp["sim_cycle_speedup"] = Buf;

  if (!O.Trace) {
    for (const auto &BP : Benches)
      for (bool Ok : BP->Ok)
        R.count(Ok);
    R.set("primary.per_s", geomean(PerS[SN]), "1/s");
    R.set("primary.p50_ms", geomean(P50[SN]), "ms");
    R.set("primary.p99_ms", geomean(P99[SN]), "ms");
    R.set("secondary.per_s", geomean(PerS[O3]), "1/s");
    R.set("secondary.p50_ms", geomean(P50[O3]), "ms");
    R.set("secondary.p99_ms", geomean(P99[O3]), "ms");
    R.set("primary_vs_ref", geomean(VsCxx[SN]), "ratio");
    R.set("secondary_vs_ref", geomean(VsCxx[O3]), "ratio");
    R.set("worst_vs_ref", *std::max_element(VsCxx[SN].begin(), VsCxx[SN].end()),
          "ratio");
    R.set("cpu_us_per_op", CpuUsPerCall, "us");
    R.set("peak_rss_mb", RssMiB, "MiB");
    return 0;
  }

  // Traced half: the same loop with a span around every call.
  std::vector<std::vector<double>> Untraced(Benches.size());
  for (size_t I = 0; I < Benches.size(); ++I) {
    Untraced[I] = Benches[I]->Ns[NativeSN];
    for (auto &V : Benches[I]->Ns)
      V.clear();
  }
  T.enable(true);
  const double TracedCalls =
      static_cast<double>(timedLoop(Benches, O.Seconds / 2, T, R));
  T.enable(false);
  for (const auto &BP : Benches)
    for (bool Ok : BP->Ok)
      R.count(Ok);
  if (!O.TraceOut.empty())
    T.writeJsonLines(O.TraceOut);

  // The call overhead: a native call with n = 0 (entry, exit and argument
  // marshalling only).
  std::vector<double> EmptyCallNs;
  for (auto &BP : Benches) {
    std::vector<RTValue> Args = BP->Args;
    Args.back() = argInt64(0);
    std::vector<double> Ns;
    for (unsigned C = 0; C < 256; ++C) {
      const uint64_t T0 = nowNs();
      BP->Engine[SN]->run(EngineKind::Native, Args);
      Ns.push_back(static_cast<double>(nowNs() - T0));
    }
    EmptyCallNs.push_back(median(Ns));
  }

  std::vector<double> TracedVsUntraced;
  for (size_t I = 0; I < Benches.size(); ++I) {
    const KernelBench &B = *Benches[I];
    const double Items = static_cast<double>(B.K->N);
    const std::string &Name = B.K->Name;
    R.set("jit.native_ns_per_item." + Name + ".O3", Med(B, NativeO3) / Items,
          "ns/item");
    R.set("jit.native_ns_per_item." + Name + ".SN-SLP",
          Med(B, NativeSN) / Items, "ns/item");
    R.set("interp.bytecode_ns_per_item." + Name, Med(B, BytecodeSN) / Items,
          "ns/item");
    R.set("kernels.cxx_ns_per_item." + Name, Med(B, Cxx) / Items, "ns/item");
    TracedVsUntraced.push_back(Med(B, NativeSN) / median(Untraced[I]));
  }
  R.set("jit.call_overhead_ns", median(EmptyCallNs), "ns");
  R.set("jit.vector_coverage",
        Steps ? static_cast<double>(VectorSteps) / static_cast<double>(Steps)
              : 0.0,
        "ratio");
  R.set("jit.vector_speedup", geomean(VectorSpeedup), "ratio");
  R.set("jit.worst_native_vs_bytecode", WorstVsBytecode, "ratio");
  R.set("slp.sim_cycle_speedup", geomean(CycleSpeedup), "ratio");
  for (const auto &[Layer, Ns] : T.selfNsByLayer())
    R.set("self_us." + Layer, static_cast<double>(Ns) / 1e3 / TracedCalls,
          "us");
  R.set("trace.overhead_pct", (geomean(TracedVsUntraced) - 1.0) * 100.0, "%");
  return 0;
}

} // namespace perfbench
