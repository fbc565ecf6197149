//===-- support/stats.h - VM event counters ---------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Event counters mirroring the instrumentation the paper relies on:
/// deoptimization events, deoptless dispatches and compiles, OSR-ins,
/// optimizing compilations. Each Vm has its own set in its execution
/// context (runtime/context.h); the benchmark harnesses diff snapshots of
/// it to measure a window.
///
/// All counters are relaxed atomics (support/relaxed.h): compiler threads
/// charge their compiles to the requesting Vm's counters while its
/// executor increments others and a harness reads them. The counters
/// carry no synchronization duty, so relaxed ordering is all they need.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_SUPPORT_STATS_H
#define RJIT_SUPPORT_STATS_H

#include "support/relaxed.h"

#include <cstdint>

namespace rjit {

/// Counters for the events the paper's evaluation reports on, one member
/// per support/stats.def entry. Copyable so harness code can snapshot/diff
/// it by value.
struct VmStats {
#define VM_COUNTER(Member, Name) RelaxedCounter Member;
#define VM_GAUGE(Member, Name) RelaxedGauge Member;
#include "support/stats.def"

  /// Difference of two snapshots: counters subtract; a gauge carries this
  /// (the later) snapshot's level and high-water, since a per-phase
  /// difference of levels would be meaningless.
  VmStats operator-(const VmStats &O) const;

  /// Adds \p O's counters; gauges take \p O's level (\p O is the later
  /// snapshot, or another Vm's) and the higher of the two high-waters.
  VmStats &operator+=(const VmStats &O);
};

/// The counters of the calling thread's Vm (its execution context's);
/// the process default context's on a thread without one. Read them while
/// the Vm lives.
VmStats &stats();

} // namespace rjit

#endif // RJIT_SUPPORT_STATS_H
