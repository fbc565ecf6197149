//===-- osr/deoptless.h - Dispatched specialized continuations ---*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution: deoptimization points become
/// assumption-polymorphic dispatch sites over specialized optimized
/// continuations. Each function has a bounded dispatch table of
/// continuations keyed by DeoptContext (paper §4.3: at most
/// MaxContinuations entries, sorted from most to least specialized, the
/// first compatible one serves): the same code table (dispatch/table.h) as
/// its versions and OSR-in code, owned by the Vm's per-function TierState.
/// On a failing guard the handler computes the current context, dispatches
/// (first entry whose context is >= the current one in the partial order),
/// possibly requests a new continuation (compiled with repaired feedback,
/// see opt/cleanup) through compile/service, and invokes it directly with
/// the live state — never leaving optimized code.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OSR_DEOPTLESS_H
#define RJIT_OSR_DEOPTLESS_H

#include "dispatch/table.h"
#include "exec/backend.h"
#include "opt/translate.h"
#include "osr/reason.h"

#include <memory>

namespace rjit {

struct SlotView;

/// The function whose continuation table a failing guard dispatches over:
/// the innermost frame's. A guard inside an inlined callee dispatches over
/// the *callee's* continuations (shared by every caller that inlined it),
/// compiled from the callee's bytecode at the callee's pc.
inline Function *continuationOwner(const LowFunction &F,
                                   const DeoptMeta &Meta) {
  return Meta.FrameFn ? Meta.FrameFn : F.Origin;
}

/// Attempts the deoptless path for a failing guard, dispatching over
/// \p Table (the continuation table of continuationOwner(F, Meta)).
/// Returns true and sets \p Result when a continuation handled the rest of
/// the activation; returns false when the caller must perform a true
/// deoptimization. A miss is compiled under \p Opts
/// (requestContinuationCompile): now, on the executor, or — with
/// Opts.Pool — in the background, in which case the miss is a true
/// deoptimization *this time* and later failures dispatch to the published
/// continuation without ever pausing. For a guard inside an inlined callee
/// the synthesized caller frames are resumed in the baseline interpreter
/// after the continuation, so the activation still yields the caller's
/// value.
bool tryDeoptless(const LowFunction &F, const SlotView &Slots,
                  const DeoptMeta &Meta, Env *ParentEnv, bool Injected,
                  CodeTable<DeoptContext> &Table, const OptOptions &Opts,
                  Value &Result);

/// The repaired profile a continuation for \p Ctx must be compiled
/// against (paper §4.3 "Incomplete Profile Data"). Reads live feedback:
/// call on the executor thread (the continuation request does, in both
/// modes).
FeedbackTable repairedContinuationFeedback(Function *Fn,
                                           const DeoptContext &Ctx,
                                           bool CleanupEnabled);

/// The entry state a continuation for \p Ctx is compiled from: its pc and
/// the stack and environment types the context records. The continuation
/// request's job compiles it under the repaired profile (a SnapshotScope
/// whose table for the owner is the repaired feedback).
EntryState continuationEntry(const DeoptContext &Ctx);

} // namespace rjit

#endif // RJIT_OSR_DEOPTLESS_H
