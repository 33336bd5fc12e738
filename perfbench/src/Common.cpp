//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <time.h>

namespace perfbench {

namespace {
uint64_t ProcessStartNs = 0;

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}
} // namespace

uint64_t processCpuNs() {
  struct timespec TS;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return static_cast<uint64_t>(TS.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(TS.tv_nsec);
}

void markProcessStart() { ProcessStartNs = nowNs(); }
uint64_t sinceProcessStartNs() { return nowNs() - ProcessStartNs; }

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  // Nearest rank on the sorted samples.
  size_t Idx = static_cast<size_t>(P * static_cast<double>(V.size() - 1) + 0.5);
  std::nth_element(V.begin(), V.begin() + Idx, V.end());
  return V[Idx];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double windowedPercentile(const std::vector<double> &Samples, double P,
                          unsigned Windows) {
  if (Samples.size() < Windows * 100u)
    return percentile(Samples, P);
  std::vector<double> PerWindow;
  const size_t Step = Samples.size() / Windows;
  for (unsigned W = 0; W < Windows; ++W) {
    auto Begin = Samples.begin() + static_cast<long>(W * Step);
    auto End = W + 1 == Windows ? Samples.end() : Begin + static_cast<long>(Step);
    PerWindow.push_back(percentile(std::vector<double>(Begin, End), P));
  }
  return median(PerWindow);
}

double peakRssMiB() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

void Result::fail(const std::string &What) {
  Correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", What.c_str());
}

std::string Result::toJson() const {
  std::ostringstream OS;
  OS << "{\"correct\": " << (Correct && Failed == 0 ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : Metrics) {
    OS << (First ? "" : ", ") << jsonString(Name) << ": {\"value\": "
       << jsonNumber(M.Value) << ", \"unit\": " << jsonString(M.Unit) << "}";
    First = false;
  }
  OS << "}, \"stamp\": {";
  First = true;
  for (const auto &[Key, Value] : Stamp) {
    OS << (First ? "" : ", ") << jsonString(Key) << ": " << jsonString(Value);
    First = false;
  }
  OS << "}}";
  return OS.str();
}

} // namespace perfbench
