//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile service's request path, in-process: the calls snslpd makes
/// for one request (decodeRequest, ShardedService::shardFor and
/// compileSync, buildResponse, encodeResponse) on a service shaped like the
/// daemon (2 shards, 2 workers), each call in a span. 90% of the requests
/// come from a hot pool (cache reads); 10% are fresh modules (compile and
/// cache insert). Every request is executed (`run: 1`).
///
/// Only modules whose signature buildResponse can fill are drawn: leading
/// pointer arguments plus at most one trailing integer, with every buffer
/// within the synthesized element count (README.md records the loadgen
/// finding this avoids). Every response is checked: a hot module's
/// mem-hash against the golden its warm-up computed, a fresh one for a
/// successful run.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "fuzz/IRGenerator.h"
#include "ir/Context.h"
#include "ir/Function.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "service/Protocol.h"
#include "service/ShardedService.h"
#include "support/RNG.h"

using namespace snslp;
using namespace snslp::fuzz;
using namespace snslp::service;

namespace perfbench {
namespace {

constexpr double kHotShare = 0.9;
constexpr unsigned kHotPool = 256;
/// Requests in the measured stream.
constexpr unsigned kRequests = 2000;
constexpr unsigned kShards = 2;
constexpr unsigned kWorkers = 2;
/// Elements per synthesized buffer: every generated shape fits (the alias
/// shape addresses 24 cells, the loop shape n + 3).
constexpr uint64_t kElems = 64;

/// buildResponse's argument synthesis: leading pointers, then at most one
/// trailing integer; and every buffer the program touches within kElems.
/// Programs returning a floating-point value are left out too: a subnormal
/// return value is encoded in a form decodeResponse rejects (README.md).
bool runnable(const GeneratedProgram &P) {
  if (P.ReturnsValue && P.ElemTy->isFloatingPoint())
    return false;
  const Function &F = *P.F;
  unsigned NumPtrs = 0;
  for (unsigned I = 0; I < F.getNumArgs(); ++I) {
    Type *Ty = F.getArg(I)->getType();
    if (Ty->isPointer() && I == NumPtrs)
      ++NumPtrs;
    else if (!(Ty->isInteger() && I + 1 == F.getNumArgs()))
      return false;
  }
  return P.ArrayLen <= kElems;
}

std::string encodeModule(std::string Text) {
  ServiceRequest Req;
  Req.ModuleText = std::move(Text);
  Req.Mode = VectorizerMode::SNSLP;
  Req.Run = true;
  Req.WantBody = false;
  Req.Elems = kElems;
  return encodeRequest(Req);
}

/// The next module from \p Seed on that runnable() accepts; \p Seed is
/// advanced past it. Its one function is named "f<seed>".
std::string nextModule(uint64_t &Seed) {
  for (;; ++Seed) {
    Context Ctx;
    Module M(Ctx, "serve");
    IRGenerator Gen(M);
    GeneratedProgram P = Gen.generate("f" + std::to_string(Seed), Seed);
    if (runnable(P)) {
      ++Seed;
      return toString(M);
    }
  }
}

/// Sends one request through the request path; returns its mem-hash, or
/// an empty string when the request failed.
std::string serveOne(ShardedService &Svc, const std::string &Payload,
                     Tracer &T, uint32_t Req) {
  auto Root = T.span("bench.request", Req);
  ServiceRequest SR;
  {
    auto Sp = T.span("service.decode", Req);
    decodeRequest(Payload, SR, nullptr);
  }
  CompileRequest CR = toCompileRequest(SR);
  {
    auto Sp = T.span("service.route", Req);
    Svc.shardFor(CR);
  }
  // Whether this compile will hit is known only after it ran, so the span
  // name is fixed up afterwards.
  const size_t CompileSpan = T.spans().size();
  Expected<CompiledUnit> U = [&] {
    auto Sp = T.span("service.compile_miss", Req);
    return Svc.compileSync(CR);
  }();
  if (U && U->CacheHit && T.enabled())
    T.rename(CompileSpan, "service.cache_hit");
  ServiceResponse Resp;
  {
    auto Sp = T.span("service.run", Req);
    Resp = buildResponse(U, SR);
  }
  {
    auto Sp = T.span("service.encode", Req);
    encodeResponse(Resp);
  }
  return Resp.Ok && Resp.RunOk ? Resp.MemHashHex : std::string();
}

} // namespace

void measureServicePath(uint64_t Seed, Result &R) {
  ShardedServiceConfig Cfg;
  Cfg.Shards = kShards;
  Cfg.TotalWorkers = kWorkers;
  ShardedService Svc(Cfg);
  Tracer Off;

  // The hot pool, warmed up: each module's first response is its golden.
  std::vector<std::string> Hot, HotGolden;
  uint64_t S = Seed * 1000003ull;
  for (unsigned I = 0; I < kHotPool; ++I) {
    Hot.push_back(encodeModule(nextModule(S)));
    HotGolden.push_back(
        serveOne(Svc, Hot.back(), Off, static_cast<uint32_t>(I)));
  }

  // The measured stream: 90% hot-pool requests, 10% never-seen modules.
  RNG Pick(Seed * 31 + 5);
  S = Seed * 1000003ull + 0x10000000ull;
  std::vector<std::string> Fresh;
  std::vector<int32_t> HotIdx; // Per request; -1 for a fresh module.
  for (unsigned I = 0; I < kRequests; ++I) {
    if (Pick.nextBool(kHotShare)) {
      HotIdx.push_back(static_cast<int32_t>(Pick.nextBelow(Hot.size())));
    } else {
      HotIdx.push_back(-1);
      Fresh.push_back(encodeModule(nextModule(S)));
    }
  }

  Tracer T;
  T.enable(true);
  size_t NextFresh = 0;
  for (unsigned I = 0; I < kRequests; ++I) {
    const int32_t H = HotIdx[I];
    const std::string &Payload =
        H >= 0 ? Hot[static_cast<size_t>(H)] : Fresh[NextFresh++];
    const std::string Got = serveOne(Svc, Payload, T, I);
    const bool Ok = !Got.empty() &&
                    (H < 0 || Got == HotGolden[static_cast<size_t>(H)]);
    if (!Ok)
      R.fail("in-process service request " + std::to_string(I) + " (" +
             (H >= 0 ? "hot" : "fresh") +
             ") failed or differs from its golden");
    R.count(Ok);
  }
  T.enable(false);

  auto StageUs = [&](const char *Name) {
    return median(T.durationsNs(Name)) / 1e3;
  };
  R.set("service.decode_us", StageUs("service.decode"), "us");
  R.set("service.route_us", StageUs("service.route"), "us");
  R.set("service.cache_hit_us", StageUs("service.cache_hit"), "us");
  R.set("service.compile_miss_us", StageUs("service.compile_miss"), "us");
  R.set("service.run_us", StageUs("service.run"), "us");
  R.set("service.encode_us", StageUs("service.encode"), "us");
  const auto Self = T.selfNsByLayer();
  auto It = Self.find("service");
  if (It != Self.end())
    R.set("self_us.service",
          static_cast<double>(It->second) / 1e3 / kRequests, "us");
}

} // namespace perfbench
