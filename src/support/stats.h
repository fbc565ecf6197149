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

/// Counters for the events the paper's evaluation reports on. Copyable so
/// harness code can snapshot/diff it by value.
struct VmStats {
  RelaxedCounter Compilations;        ///< whole-function optimizing compiles
  RelaxedCounter OsrInCompilations;   ///< OSR-in continuation compiles
  RelaxedCounter OsrInEntries;        ///< transfers interpreter -> native
  RelaxedCounter Deopts;              ///< true deoptimizations (OSR-out)
  RelaxedCounter DeoptlessAttempts;   ///< deopt events offered to deoptless
  RelaxedCounter DeoptlessHits;       ///< dispatched to an existing continuation
  RelaxedCounter DeoptlessCompiles;   ///< newly compiled continuations
  RelaxedCounter DeoptlessRejected;   ///< fell through to a true deopt
  RelaxedCounter AssumeChecks;        ///< dynamic Assume guard executions
  RelaxedCounter AssumeFailures;      ///< failed guards (incl. injected ones)
  RelaxedCounter InjectedFailures;    ///< random invalidation-mode triggers
  RelaxedCounter Reoptimizations;     ///< profile-driven recompiles (Fig. 11)
  RelaxedCounter CtxVersions;         ///< context-specialized versions compiled
  RelaxedCounter CtxDispatchHits;     ///< calls run by a specialized version
  RelaxedCounter CtxDispatchMisses;   ///< context-dispatch calls that fell back
                                      ///< to the generic version or baseline
  RelaxedCounter InlinedCalls;        ///< call sites spliced by opt/inline
  RelaxedCounter HoistedInstrs;       ///< pure instructions LICM moved into
                                      ///< a loop preheader
  RelaxedCounter HoistedGuards;       ///< loop-invariant guards re-anchored
                                      ///< to a preheader frame state
  RelaxedCounter EliminatedGuards;    ///< guards removed as dominated by an
                                      ///< equivalent guard
  RelaxedCounter MultiFrameDeopts;    ///< OSR-outs that rebuilt >1 frame
  RelaxedCounter InlineFramesMaterialized; ///< interpreter frames synthesized
                                      ///< for inlined callers on OSR-out /
                                      ///< after a deoptless continuation
  RelaxedCounter DeoptlessInlineDispatches; ///< deoptless dispatches keyed on
                                      ///< an inlined (innermost) frame
  RelaxedCounter AsyncCompiles;       ///< jobs executed by the compiler pool
  RelaxedGauge CompileQueueDepth;     ///< queued (not yet popped) requests;
                                      ///< highWater() is the depth peak
  RelaxedCounter WarmupPausesAvoided; ///< dispatches that kept running the
                                      ///< baseline while a background
                                      ///< compile was pending instead of
                                      ///< pausing to compile synchronously
  RelaxedCounter NativeCompiles;      ///< executables emitted by the x86-64
                                      ///< template-JIT backend
  RelaxedCounter NativeEnters;        ///< activations entered through
                                      ///< native (template-JIT) code
  RelaxedCounter NativeLinkedTransfers; ///< calls transferred native-to-
                                      ///< native through a direct-linked
                                      ///< call site (bypassing full VM
                                      ///< dispatch)
  RelaxedCounter NativeFusedOps;      ///< LowCode instruction pairs the
                                      ///< v2 tier emitted as one fused
                                      ///< superinstruction (compile time)
  RelaxedCounter NativeRegSpills;     ///< raw-slot live ranges with uses
                                      ///< that were denied a register
                                      ///< home (pool exhausted)
  RelaxedCounter CowCopies;           ///< shared vectors copied for an
                                      ///< element write (copy-on-write);
                                      ///< in-place writes do not count
  RelaxedGauge GraveyardSize;         ///< retired executables awaiting
                                      ///< safepoint reclamation; the
                                      ///< owning Vm re-syncs the level
                                      ///< (setLevel) on every retire and
                                      ///< reclaim, so a mid-run
                                      ///< resetStats() self-heals;
                                      ///< highWater() is the peak
                                      ///< population since the reset
  RelaxedCounter GcCollections;       ///< heap cycle-collector passes run
                                      ///< (safepoint-triggered + teardown)
  RelaxedCounter GcFreedBytes;        ///< bytes reclaimed by cycle
                                      ///< collection (refcount-unreachable
                                      ///< Env/closure/list cycles)
  RelaxedGauge HeapLiveBytes;         ///< live value-heap bytes; re-synced
                                      ///< (setLevel) on every tracked
                                      ///< alloc/free, so it self-heals
                                      ///< after resetStats; highWater() is
                                      ///< the heap peak since the reset

  /// Difference of two snapshots, counter by counter.
  VmStats operator-(const VmStats &O) const;
};

/// Process-wide statistics instance.
VmStats &stats();

/// Resets all counters to zero.
void resetStats();

} // namespace rjit

#endif // RJIT_SUPPORT_STATS_H
