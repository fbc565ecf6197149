//===-- support/stats.h - VM event counters ---------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global event counters mirroring the instrumentation the paper relies on:
/// deoptimization events, deoptless dispatches and compiles, OSR-ins,
/// optimizing compilations, and heap high-water marks. The benchmark
/// harnesses read and reset these between phases.
///
/// All counters are relaxed atomics (support/relaxed.h): the moment a
/// compiler thread or a second executor exists, the bench harness reading
/// a plain uint64_t while another thread increments it is a data race.
/// The counters carry no synchronization duty, so relaxed ordering is all
/// they need.
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

  /// Adds \p O's counters; gauges take \p O's level and high-water (\p O
  /// is the later snapshot).
  VmStats &operator+=(const VmStats &O);
};

/// Process-wide statistics instance.
VmStats &stats();

/// Resets all counters to zero.
void resetStats();

} // namespace rjit

#endif // RJIT_SUPPORT_STATS_H
