//===-- lowcode/step.h - Single-instruction LowCode execution ----*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-instruction execution of LowCode against raw slot arrays — the
/// interpreter's op semantics exposed as a stepping function. This is the
/// native backend's fallback path: ops without a machine-code template
/// (environment ops, builtin calls, generic fallbacks) are compiled to a
/// direct call into these handlers, so the two backends share one
/// implementation of every nontrivial operation and cannot drift apart.
///
/// Implemented in lowcode/exec.cpp next to (and sharing every helper
/// with) the threaded dispatch loop.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_LOWCODE_STEP_H
#define RJIT_LOWCODE_STEP_H

#include "lowcode/lowcode.h"
#include "obs/trace.h"

namespace rjit {

class Env;
class ExecContext;
struct SlotView;

/// Executes the single non-control-flow instruction \p I against the raw
/// slot arrays. Control-flow ops (jumps, branches, CmpBranch, GuardCond,
/// EpochCheck, RetLow) are the caller's job — the native backend always emits
/// templates for them — and assert here. Raises RError exactly like the
/// interpreter would.
void stepLowInstr(const LowFunction &F, const LowInstr &I, Value *S,
                  double *D, int32_t *Iv, Env *CurEnv, Env *ParentEnv,
                  Env *ReadEnv);

/// CmpBranch evaluation: true when the branch to I.Imm is taken (i.e.
/// the fused compare, in any rank, equals the instruction's sense bit).
bool stepCmpBranchTaken(const LowInstr &I, const Value *S, const double *D,
                        const int32_t *Iv);

/// The inline guard-condition check (no stats, no invalidation): true
/// when the guarded fact holds. Shared by the interpreter's GuardCond
/// case and the native backend's slow-path re-check.
bool lowGuardHolds(const LowInstr &I, const DeoptMeta &M, const Value *S);

/// The failure of GuardCond or EpochCheck at \p Pc, one protocol for both
/// tiers. An \p Injected failure (the §5.1 countdown reached zero on a
/// holding guard) rearms the countdown, counts InjectedFailures and traces
/// Invalidate first. Every failure counts AssumeFailures, is traced as
/// \p Kind (the interpreter's guard-fail, the native tier's
/// native-side-exit) and tail-calls \p C's deopt hook, whose result is the
/// activation's.
Value failGuard(ExecContext &C, obs::TraceEv Kind, const LowFunction &F,
                int32_t Pc, const SlotView &Slots, Env *CurEnv,
                Env *ParentEnv, bool Injected);

/// Spills incoming arguments into their class homes (boxed / raw-double
/// / raw-int slots, per F.ParamClasses). The activation-entry convention
/// shared by the interpreter engine and the native backend's run().
void spillLowArgs(const LowFunction &F, std::vector<Value> &&Args,
                  Value *S, double *D, int32_t *Iv);

} // namespace rjit

#endif // RJIT_LOWCODE_STEP_H
