//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Span recorder for the traced runs. The benchmark wraps each call it
/// makes into a layer's public functions in a span (name, start, end,
/// parent, request id). Spans stay in memory and are written out once, at
/// exit. A span's layer is its name up to the first '.', so the traced run
/// can split time by module: a layer's self time is the duration of its
/// spans minus the parts covered by their children.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  struct Span {
    const char *Name = nullptr; ///< A string literal ("ir.parse", ...).
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
    int32_t Parent = -1;
    uint32_t Request = 0;
  };

  /// Closes its span on destruction. A disabled tracer hands out inert
  /// scopes, so instrumented code reads the same either way.
  class Scope {
  public:
    Scope(Tracer *T, int32_t Idx) : T(T), Idx(Idx) {}
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope();

  private:
    Tracer *T;
    int32_t Idx;
  };

  void enable(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  /// Opens a span as a child of the innermost open one.
  Scope span(const char *Name, uint32_t Request);

  const std::vector<Span> &spans() const { return Spans; }
  /// Renames span \p Idx, for a span whose kind is known only after it
  /// ended (a compile that turned out to be a cache hit).
  void rename(size_t Idx, const char *Name) { Spans[Idx].Name = Name; }

  /// Self time per span name in nanoseconds: duration minus children.
  std::map<std::string, uint64_t> selfNsByName() const;
  /// Self time per layer (span-name prefix before the first '.').
  std::map<std::string, uint64_t> selfNsByLayer() const;
  /// Durations (not self times) of every span called \p Name, in ns.
  std::vector<double> durationsNs(const std::string &Name) const;

  /// Writes the first kMaxWrittenSpans spans as one JSON object per line,
  /// so a long traced run leaves a file of bounded size; the reported
  /// metrics always use every span.
  static constexpr size_t kMaxWrittenSpans = 100000;
  bool writeJsonLines(const std::string &Path) const;

private:
  bool Enabled = false;
  int32_t Open = -1;
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
