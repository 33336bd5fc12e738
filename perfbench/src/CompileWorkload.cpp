//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `compile` workload: cold compiles through CompileService::compileSync
/// on one thread. The corpus is the kernel registry (the paper's APO
/// pattern classes, where Super-Nodes fire) plus seeded IRGenerator
/// programs of all three shapes; alias clusters make the vectorizer build
/// graphs that end in rejected seeds. Each module is compiled under O3
/// (the reference: no vectorizer), SN-SLP (primary) and GoSLP (secondary);
/// the cache is cleared before every timed compile, so each one is a miss.
///
/// The traced run replays the same pipeline stage by stage through the
/// layers' public functions (parseIR, verifyModule, the cleanup passes,
/// runSLPVectorizer, toString, the ExecutionEngine constructor and
/// isNativeAvailable), with a span around each call.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "driver/KernelRunner.h"
#include "fuzz/DiffOracle.h"
#include "fuzz/IRGenerator.h"
#include "interp/ExecutionEngine.h"
#include "ir/Context.h"
#include "ir/DCE.h"
#include "ir/Function.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "kernels/Kernel.h"
#include "passes/CSE.h"
#include "passes/ConstantFolding.h"
#include "service/CompileService.h"
#include "support/Hashing.h"
#include "support/RNG.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace snslp;
using namespace snslp::fuzz;

namespace perfbench {
namespace {

/// Generated programs per shape (expr, alias, loop). The seed picks the
/// programs; the mix of operator families, lane counts, element widths
/// and unroll factors is fixed (stratified), and the count is large
/// enough that the corpus-wide figures barely depend on the seed.
constexpr unsigned kGeneratedPerShape = 128;

/// Set-ups per run; `setup_s` is their median.
constexpr unsigned kSetUps = 5;

const VectorizerMode kModes[] = {VectorizerMode::O3, VectorizerMode::SNSLP,
                                 VectorizerMode::GoSLP};
enum ModeIdx { O3 = 0, SN = 1, GO = 2, NumModes = 3 };

struct Source {
  std::string Name;
  std::string Text;
  const Kernel *K = nullptr; ///< Registry kernels.
  /// Generated programs: the original function and its oracle metadata.
  std::unique_ptr<Context> Ctx;
  std::unique_ptr<Module> M;
  GeneratedProgram P;
};

std::vector<Source> buildCorpus(uint64_t Seed) {
  std::vector<Source> Corpus;
  for (const Kernel &K : kernelRegistry()) {
    Source S;
    S.Name = K.Name;
    S.Text = K.IRText;
    S.K = &K;
    Corpus.push_back(std::move(S));
  }
  RNG R(Seed * 0x9e3779b97f4a7c15ULL + 0x636f6d70ULL);
  for (unsigned I = 0; I < kGeneratedPerShape; ++I) {
    for (ProgramShape Shape :
         {ProgramShape::Expression, ProgramShape::Alias, ProgramShape::Loop}) {
      Source S;
      S.Name = std::string("g_") + getShapeName(Shape) + std::to_string(I);
      S.Ctx = std::make_unique<Context>();
      S.M = std::make_unique<Module>(*S.Ctx, "corpus");
      IRGenerator Gen(*S.M);
      RNG PR(R.next());
      switch (Shape) {
      case ProgramShape::Expression: {
        const OpFamily Families[] = {OpFamily::IntAddSub, OpFamily::FPAddSub,
                                     OpFamily::FPMulDiv};
        OpFamily Fam = Families[I % 3];
        Type *Ty = nullptr; // The family default (i64 / f64) ...
        if ((I / 6) % 3 == 0) // ... or, for a third, its 32-bit variant.
          Ty = Fam == OpFamily::IntAddSub ? S.Ctx->getInt32Ty()
                                          : S.Ctx->getFloatTy();
        S.P = Gen.generateExpressionTree(S.Name, Fam, (I / 3) % 2 ? 4 : 2,
                                         PR, Ty);
        break;
      }
      case ProgramShape::Alias:
        S.P = Gen.generateAliasProgram(S.Name, PR);
        break;
      case ProgramShape::Loop:
        S.P = Gen.generateLoop(S.Name, I % 2 ? 4 : 2, PR);
        break;
      }
      S.Text = toString(*S.M);
      Corpus.push_back(std::move(S));
    }
  }
  return Corpus;
}

CompileRequest makeRequest(const Source &S, VectorizerMode Mode) {
  CompileRequest Req;
  Req.ModuleText = S.Text;
  Req.EntryFunction = S.Name;
  Req.Config.Mode = Mode;
  return Req;
}

size_t instructionCount(const Module &M) {
  size_t N = 0;
  for (const auto &F : M.functions())
    N += F->instructionCount();
  return N;
}

/// Counts one stage-by-stage replay of the compile pipeline accumulates.
struct ReplayCounts {
  uint64_t InstsIn = 0, InstsOut = 0, Removed = 0;
  uint64_t CodeBytes = 0, Spills = 0, FallbackOps = 0;
  VectorizeStats Vec;
};

/// The compile pipeline of CompileService, called layer by layer (the
/// same order as runPassPipeline inside compileLocked), with a span around
/// each call. Returns false when a stage rejects the module.
bool replayPipeline(const Source &S, const VectorizerConfig &Cfg,
                    const char *VectorizeSpan, Tracer &T, uint32_t Req,
                    ReplayCounts &C) {
  Context Ctx;
  Module M(Ctx, "replay");
  {
    auto Sp = T.span("ir.parse", Req);
    if (!parseIR(S.Text, M))
      return false;
  }
  {
    auto Sp = T.span("ir.verify", Req);
    if (!verifyModule(M))
      return false;
  }
  C.InstsIn += instructionCount(M);
  auto Cleanup = [&](Function &F, const char *Name) {
    auto Sp = T.span(Name, Req);
    C.Removed += runConstantFolding(F);
    C.Removed += runLocalCSE(F);
    C.Removed += runDeadCodeElimination(F);
  };
  for (const auto &F : M.functions()) {
    Cleanup(*F, "passes.early_cleanup");
    {
      auto Sp = T.span(VectorizeSpan, Req);
      C.Vec.mergeFrom(runSLPVectorizer(*F, Cfg));
    }
    Cleanup(*F, "passes.late_cleanup");
  }
  {
    auto Sp = T.span("ir.verify", Req);
    if (!verifyModule(M))
      return false;
  }
  C.InstsOut += instructionCount(M);
  std::string Text;
  {
    auto Sp = T.span("ir.print", Req);
    Text = toString(M);
  }
  Function *Entry = M.getFunction(S.Name);
  if (!Entry)
    return false;
  TargetCostModel TCM(Cfg.Target);
  std::unique_ptr<ExecutionEngine> Engine;
  {
    auto Sp = T.span("interp.bytecode_build", Req);
    Engine = std::make_unique<ExecutionEngine>(
        *Entry, [TCM](const Instruction &I) { return TCM.executionCycles(I); });
  }
  {
    auto Sp = T.span("jit.compile", Req);
    Engine->isNativeAvailable();
  }
  C.CodeBytes += Engine->nativeCodeSize();
  C.Spills += Engine->nativeRegAllocSpills();
  C.FallbackOps += Engine->nativeFallbackOpCount();
  return true;
}

/// Checks one compiled module against an independent reference: registry
/// kernels with KernelRunner::check against Kernel::Reference, generated
/// programs with DiffOracle against the reference interpreter running the
/// unvectorized original.
bool checkOutput(const Source &S, const CompiledProgram &P, uint64_t Seed,
                 std::string &Msg) {
  Context Ctx;
  Module M(Ctx, "check");
  if (!parseIR(P.vectorizedText(), M, &Msg))
    return false;
  Function *F = M.getFunction(S.Name);
  if (!F) {
    Msg = "vectorized module lost @" + S.Name;
    return false;
  }
  if (S.K) {
    KernelRunner Runner;
    CompiledKernel CK;
    CK.Spec = S.K;
    CK.F = F;
    return Runner.check(CK, Seed, &Msg);
  }
  DiffOracle Oracle;
  ProgramRun Want = Oracle.runProgram(S.P, *S.P.F, Seed, EngineKind::Reference);
  ProgramRun Got = Oracle.runProgram(S.P, *F, Seed, EngineKind::Native);
  if (!Want.Ok) {
    Msg = "reference run failed: " + Want.Error;
    return false;
  }
  return Oracle.compareRuns(S.P, Want, Got, &Msg);
}

} // namespace

int runCompile(const Options &O, Result &R) {
  // Set-up: corpus generation, the service, and one untimed pass of every
  // compile (so lazy initialisation is not charged to the first timed
  // ones), kSetUps times.
  std::vector<double> SetUpS;
  std::vector<Source> Corpus;
  std::unique_ptr<CompileService> Svc;
  std::vector<std::vector<CompileRequest>> Reqs;
  std::vector<std::string> SetUpText; // [mode * N + module]
  // Whether every compile of a module in a mode succeeded: one checked
  // operation per module x mode. [mode * N + module]
  std::vector<char> SeriesOk;
  for (unsigned I = 0; I < kSetUps; ++I) {
    const uint64_t Start = I == 0 ? 0 : sinceProcessStartNs();
    Svc.reset();
    Corpus = buildCorpus(O.Seed);
    ServiceConfig SC;
    SC.Workers = 1; // compileSync runs in the calling thread.
    Svc = std::make_unique<CompileService>(SC);
    Reqs.assign(Corpus.size(), {});
    SetUpText.assign(NumModes * Corpus.size(), {});
    SeriesOk.assign(NumModes * Corpus.size(), 1);
    for (size_t M = 0; M < Corpus.size(); ++M) {
      for (int Mode = 0; Mode < NumModes; ++Mode) {
        Reqs[M].push_back(makeRequest(Corpus[M], kModes[Mode]));
        Expected<CompiledUnit> U = Svc->compileSync(Reqs[M].back());
        if (!U) {
          R.fail("set-up compile of " + Corpus[M].Name + ": " +
                 U.errorMessage());
          SeriesOk[Mode * Corpus.size() + M] = 0;
        } else
          SetUpText[Mode * Corpus.size() + M] = U->Program->vectorizedText();
      }
    }
    SetUpS.push_back(static_cast<double>(sinceProcessStartNs() - Start) / 1e9);
  }
  R.set("setup_s", median(SetUpS), "s");
  const size_t N = Corpus.size();
  R.Stamp["corpus_modules"] = std::to_string(N);

  // Timed cold compiles, round robin over module x mode until the time is
  // up. A traced run makes one pass here and spends its time on the
  // alternating untraced and traced replays.
  const double LoopShare = O.Trace ? 0.0 : 1.0;
  std::vector<std::vector<double>> Ns(NumModes * N); // [mode * N + module]
  std::vector<double> Pooled[NumModes];              // In time order.
  const uint64_t CpuStart = processCpuNs();
  const uint64_t LoopStart = nowNs();
  const uint64_t Deadline =
      LoopStart + static_cast<uint64_t>(O.Seconds * LoopShare * 1e9);
  uint64_t Compiles = 0;
  do {
    for (size_t I = 0; I < N; ++I) {
      for (int M = 0; M < NumModes; ++M) {
        Svc->cache().clear();
        const uint64_t T0 = nowNs();
        Expected<CompiledUnit> U = Svc->compileSync(Reqs[I][M]);
        const uint64_t T1 = nowNs();
        ++Compiles;
        if (!U || U->CacheHit) {
          R.fail("compile " + Corpus[I].Name + "/" + getModeName(kModes[M]) +
                 (U ? ": unexpected cache hit" : ": " + U.errorMessage()));
          SeriesOk[M * N + I] = 0;
          continue;
        }
        const double D = static_cast<double>(T1 - T0);
        Ns[M * N + I].push_back(D);
        Pooled[M].push_back(D);
      }
    }
  } while (nowNs() < Deadline);
  const double LoopSeconds = static_cast<double>(nowNs() - LoopStart) / 1e9;
  const uint64_t CpuEnd = processCpuNs();
  for (char Ok : SeriesOk)
    R.count(Ok);
  R.Stamp["timed_compiles"] = std::to_string(Compiles);
  R.Stamp["loop_seconds"] = std::to_string(LoopSeconds);

  auto ModuleMedianNs = [&](int M, size_t I) { return median(Ns[M * N + I]); };
  // Modules per second from each module's fastest cold compile in the
  // run. A compile does the same work every time; on a shared host its
  // median follows the other tenants' load, its best time much less
  // (README.md has the measurements).
  auto Throughput = [&](int M) {
    double SumNs = 0;
    for (size_t I = 0; I < N; ++I) {
      const std::vector<double> &V = Ns[M * N + I];
      if (!V.empty()) // Empty only when every compile failed.
        SumNs += *std::min_element(V.begin(), V.end());
    }
    return static_cast<double>(N) / (SumNs / 1e9);
  };
  std::vector<double> SnVsO3, GoVsO3;
  // The worst case is taken over the registry kernels, a fixed set: over
  // the generated programs it would depend on which ones the seed drew.
  double WorstKernel = 0;
  for (size_t I = 0; I < N; ++I) {
    SnVsO3.push_back(ModuleMedianNs(SN, I) / ModuleMedianNs(O3, I));
    GoVsO3.push_back(ModuleMedianNs(GO, I) / ModuleMedianNs(O3, I));
    if (Corpus[I].K)
      WorstKernel = std::max(WorstKernel, SnVsO3.back());
  }
  if (!O.Trace) {
    R.set("primary.per_s", Throughput(SN), "1/s");
    R.set("primary.p50_ms", windowedPercentile(Pooled[SN], 0.5, 5) / 1e6, "ms");
    R.set("primary.p99_ms", windowedPercentile(Pooled[SN], 0.99, 5) / 1e6,
          "ms");
    R.set("secondary.per_s", Throughput(GO), "1/s");
    R.set("secondary.p50_ms", windowedPercentile(Pooled[GO], 0.5, 5) / 1e6,
          "ms");
    R.set("secondary.p99_ms", windowedPercentile(Pooled[GO], 0.99, 5) / 1e6,
          "ms");
    R.set("primary_vs_ref", geomean(SnVsO3), "ratio");
    R.set("secondary_vs_ref", geomean(GoVsO3), "ratio");
    R.set("worst_vs_ref", WorstKernel, "ratio");
    R.set("cpu_us_per_op",
          static_cast<double>(CpuEnd - CpuStart) / 1e3 /
              static_cast<double>(Compiles),
          "us");
  }
  std::printf("compile: %zu modules, %llu timed compiles in %.1f s; SN-SLP "
              "%.0f modules/s, GoSLP %.0f modules/s, O3 %.0f modules/s\n",
              N, static_cast<unsigned long long>(Compiles), LoopSeconds,
              Throughput(SN), Throughput(GO), Throughput(O3));

  // Untimed output checks and determinism pins, SN-SLP and GoSLP: every
  // vectorized text must also equal the one the set-up produced.
  uint64_t RemarkCount = 0;
  VectorizeStats SnStats;
  for (int M : {SN, GO}) {
    uint64_t Digest = fnv1a64(getModeName(kModes[M]));
    for (size_t I = 0; I < N; ++I) {
      const std::string What =
          Corpus[I].Name + "/" + getModeName(kModes[M]) + ": ";
      Svc->cache().clear();
      Expected<CompiledUnit> U = Svc->compileSync(Reqs[I][M]);
      if (!U) {
        R.fail("compile " + What + U.errorMessage());
        R.count(false);
        continue;
      }
      const CompiledProgram &P = *U->Program;
      bool Ok = P.vectorizedText() == SetUpText[M * N + I];
      if (!Ok)
        R.fail("vectorized text of " + What + "differs between two compiles");
      Digest = fnv1a64(P.vectorizedText(), Digest);
      RemarkCount += P.remarks().size();
      if (M == SN)
        SnStats.mergeFrom(P.stats());
      std::string Msg;
      if (!checkOutput(Corpus[I], P, O.Seed, Msg)) {
        R.fail("output of " + What + Msg);
        Ok = false;
      }
      R.count(Ok);
    }
    char Hex[32];
    std::snprintf(Hex, sizeof(Hex), "%016llx",
                  static_cast<unsigned long long>(Digest));
    std::printf("compile.digest.%s: %s\n", getModeName(kModes[M]), Hex);
    R.Stamp[std::string("digest.") + getModeName(kModes[M])] = Hex;
  }
  std::printf("compile.remarks: %llu\n",
              static_cast<unsigned long long>(RemarkCount));
  R.Stamp["remarks"] = std::to_string(RemarkCount);
  R.Stamp["vector_cost"] = std::to_string(SnStats.CommittedCost);

  if (!O.Trace) {
    R.set("peak_rss_mb", peakRssMiB(), "MiB");
    return 0;
  }

  // Traced run: the replay, first untraced then traced, over the rest of
  // the time. Each op is one module under SN-SLP, GoSLP, and SN-SLP with
  // TransactionalRegions off (the snapshot share of vectorizer time).
  Tracer T;
  VectorizerConfig SnCfg, GoCfg, NoTxCfg;
  SnCfg.Mode = VectorizerMode::SNSLP;
  GoCfg.Mode = VectorizerMode::GoSLP;
  NoTxCfg.Mode = VectorizerMode::SNSLP;
  NoTxCfg.TransactionalRegions = false;
  ReplayCounts SnCounts, GoCounts;
  // SN-SLP replay durations per module, untraced and traced, and the
  // compileSync of the same request next to each untraced replay.
  std::vector<std::vector<double>> UntracedNs(N), TracedNs(N), SyncNs(N);
  std::vector<char> ReplayOk(N, 1);
  uint64_t Ops = 0;
  auto ReplayPass = [&](bool Traced, bool Count) {
    T.enable(Traced);
    for (size_t I = 0; I < N; ++I) {
      const uint32_t Req = static_cast<uint32_t>(I);
      ReplayCounts Scratch;
      const uint64_t T0 = nowNs();
      bool Ok;
      {
        auto Root = T.span("bench.module", Req);
        Ok = replayPipeline(Corpus[I], SnCfg, "slp.vectorize.snslp", T, Req,
                            Count ? SnCounts : Scratch);
      }
      (Traced ? TracedNs : UntracedNs)[I].push_back(
          static_cast<double>(nowNs() - T0));
      if (!Traced) {
        Svc->cache().clear();
        const uint64_t S0 = nowNs();
        Ok &= static_cast<bool>(Svc->compileSync(Reqs[I][SN]));
        SyncNs[I].push_back(static_cast<double>(nowNs() - S0));
      }
      {
        auto Root = T.span("bench.module", Req);
        Ok &= replayPipeline(Corpus[I], GoCfg, "slp.vectorize.goslp", T, Req,
                             Count ? GoCounts : Scratch);
      }
      {
        auto Root = T.span("bench.module", Req);
        Ok &= replayPipeline(Corpus[I], NoTxCfg, "slp.vectorize.snslp_no_tx",
                             T, Req, Scratch);
      }
      if (Traced)
        Ops += 3;
      if (!Ok && ReplayOk[I]) {
        R.fail("replay of " + Corpus[I].Name + " was rejected");
        ReplayOk[I] = 0;
      }
    }
  };
  // Untraced and traced passes alternate, so a change in the host's speed
  // during the run does not read as tracing overhead.
  const uint64_t ReplayEnd =
      nowNs() + static_cast<uint64_t>(O.Seconds * 0.8 * 1e9);
  ReplayPass(false, true);
  do {
    ReplayPass(true, false);
    ReplayPass(false, false);
  } while (nowNs() < ReplayEnd);
  T.enable(false);
  for (char Ok : ReplayOk)
    R.count(Ok);
  if (!O.TraceOut.empty())
    T.writeJsonLines(O.TraceOut);

  const double PerOp = static_cast<double>(Ops);
  auto SelfUs = T.selfNsByName();
  auto SpanUs = [&](const std::string &Name, double Per) {
    return static_cast<double>(SelfUs[Name]) / 1e3 / Per;
  };
  const double PerMode = PerOp / 3.0;
  R.set("ir.parse_us", SpanUs("ir.parse", PerOp), "us");
  R.set("ir.verify_us", SpanUs("ir.verify", PerOp), "us");
  R.set("ir.print_us", SpanUs("ir.print", PerOp), "us");
  R.set("ir.insts_in", static_cast<double>(SnCounts.InstsIn), "count");
  R.set("ir.insts_out", static_cast<double>(SnCounts.InstsOut), "count");
  R.set("passes.early_cleanup_us", SpanUs("passes.early_cleanup", PerOp), "us");
  R.set("passes.late_cleanup_us", SpanUs("passes.late_cleanup", PerOp), "us");
  R.set("passes.removed", static_cast<double>(SnCounts.Removed), "count");
  R.set("slp.vectorize_us.snslp", SpanUs("slp.vectorize.snslp", PerMode), "us");
  R.set("slp.vectorize_us.goslp", SpanUs("slp.vectorize.goslp", PerMode), "us");
  R.set("slp.vectorize_us.snslp_no_tx",
        SpanUs("slp.vectorize.snslp_no_tx", PerMode), "us");
  const VectorizeStats &V = SnCounts.Vec;
  R.set("slp.graphs_built", V.GraphsBuilt, "count");
  R.set("slp.graphs_vectorized", V.GraphsVectorized, "count");
  R.set("slp.graph_commit_ratio",
        V.GraphsBuilt ? static_cast<double>(V.GraphsVectorized) /
                            static_cast<double>(V.GraphsBuilt)
                      : 0.0,
        "ratio");
  R.set("slp.lookahead_memo_hits", static_cast<double>(V.LookAheadCacheHits),
        "count");
  R.set("slp.lookahead_memo_misses",
        static_cast<double>(V.LookAheadCacheMisses), "count");
  R.set("slp.supernodes_committed", V.superNodesCommitted(), "count");
  R.set("slp.bailouts", V.totalBailouts(), "count");
  R.set("slp.vector_cost", V.CommittedCost, "cost");
  R.set("slp.goslp.packs_enumerated", GoCounts.Vec.PacksEnumerated, "count");
  R.set("slp.goslp.packs_selected", GoCounts.Vec.PacksSelected, "count");
  R.set("slp.goslp.solver_nodes",
        static_cast<double>(GoCounts.Vec.SolverNodesExplored), "count");
  R.set("interp.bytecode_build_us", SpanUs("interp.bytecode_build", PerOp),
        "us");
  R.set("jit.compile_us", SpanUs("jit.compile", PerOp), "us");
  R.set("jit.code_bytes", static_cast<double>(SnCounts.CodeBytes), "bytes");
  R.set("jit.regalloc_spills", static_cast<double>(SnCounts.Spills), "count");
  R.set("jit.fallback_ops", static_cast<double>(SnCounts.FallbackOps),
        "count");

  // compileSync minus the same stages called directly: what the service
  // adds around the pipeline (key hashing, fingerprint, cache bookkeeping,
  // remark copies, the PassManager), per SN-SLP compile.
  double OverheadNs = 0;
  std::vector<double> TracedVsUntraced;
  for (size_t I = 0; I < N; ++I) {
    OverheadNs += median(SyncNs[I]) - median(UntracedNs[I]);
    TracedVsUntraced.push_back(median(TracedNs[I]) / median(UntracedNs[I]));
  }
  R.set("service.compile_overhead_us",
        OverheadNs / 1e3 / static_cast<double>(N), "us");

  for (const auto &[Layer, Ns] : T.selfNsByLayer())
    R.set("self_us." + Layer, static_cast<double>(Ns) / 1e3 / PerOp, "us");
  R.set("trace.overhead_pct", (geomean(TracedVsUntraced) - 1.0) * 100.0,
        "%");
  measureServicePath(O.Seed, R);
  return 0;
}

} // namespace perfbench
