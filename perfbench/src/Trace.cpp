//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "Common.h"

#include <fstream>

namespace perfbench {

Tracer::Scope Tracer::span(const char *Name, uint32_t Request) {
  if (!Enabled)
    return Scope(nullptr, -1);
  Span S;
  S.Name = Name;
  S.Parent = Open;
  S.Request = Request;
  Spans.push_back(S);
  Open = static_cast<int32_t>(Spans.size() - 1);
  // Stamp last, so the bookkeeping above is not charged to the span.
  Spans.back().StartNs = nowNs();
  return Scope(this, Open);
}

Tracer::Scope::~Scope() {
  if (!T)
    return;
  Span &S = T->Spans[static_cast<size_t>(Idx)];
  S.EndNs = nowNs();
  T->Open = S.Parent;
}

std::map<std::string, uint64_t> Tracer::selfNsByName() const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
  std::map<std::string, uint64_t> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const uint64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
    Out[Spans[I].Name] += Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
  }
  return Out;
}

std::map<std::string, uint64_t> Tracer::selfNsByLayer() const {
  std::map<std::string, uint64_t> Out;
  for (const auto &[Name, Ns] : selfNsByName())
    Out[Name.substr(0, Name.find('.'))] += Ns;
  return Out;
}

std::vector<double> Tracer::durationsNs(const std::string &Name) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (Name == S.Name)
      Out.push_back(static_cast<double>(S.EndNs - S.StartNs));
  return Out;
}

bool Tracer::writeJsonLines(const std::string &Path) const {
  std::ofstream OS(Path);
  for (size_t I = 0; I < Spans.size() && I < kMaxWrittenSpans; ++I) {
    const Span &S = Spans[I];
    OS << "{\"id\": " << I << ", \"name\": \"" << S.Name
       << "\", \"start_ns\": " << S.StartNs << ", \"end_ns\": " << S.EndNs
       << ", \"parent\": " << S.Parent << ", \"request\": " << S.Request
       << "}\n";
  }
  return static_cast<bool>(OS);
}

} // namespace perfbench
