//===-- osr/deoptless.cpp - Dispatched specialized continuations ---------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "osr/deoptless.h"
#include "compile/service.h"
#include "lowcode/exec.h"
#include "obs/trace.h"
#include "opt/cleanup.h"
#include "osr/deopt.h"

using namespace rjit;

namespace {

/// Computes the current optimization context from the live guard state.
bool computeContext(const SlotView &Slots, const DeoptMeta &Meta,
                    bool Injected, DeoptContext &Ctx) {
  if (Meta.StackSlots.size() > MaxCtxStack ||
      Meta.EnvSlots.size() > MaxCtxEnv)
    return false; // states with bigger contexts are skipped (paper §4.3)

  Ctx.Pc = Meta.BcPc;
  Ctx.Reason.Kind = Injected ? DeoptReasonKind::Injected : Meta.RKind;
  Ctx.Reason.ReasonPc = Meta.ReasonPc;
  Ctx.Reason.FailedSlot = Meta.FailedFeedbackSlot;
  if (Meta.HasValueSlot) {
    const Value &V = Slots.S[Meta.ValueSlot];
    Ctx.Reason.ActualTag = V.tag();
    if (V.tag() == Tag::Clos)
      Ctx.Reason.ActualFn = V.closObj()->Fn;
  }
  Ctx.StackSize = static_cast<uint16_t>(Meta.StackSlots.size());
  for (size_t K = 0; K < Meta.StackSlots.size(); ++K) {
    Ctx.StackTags[K] = Slots.tag(Meta.StackSlots[K]);
    if (Ctx.StackTags[K] == Tag::Builtin) // builtins are always boxed
      Ctx.StackBuiltins[K] = static_cast<uint16_t>(
          1 + static_cast<unsigned>(
                  Slots.S[Meta.StackSlots[K].Slot].builtinId()));
  }
  Ctx.EnvSize = static_cast<uint16_t>(Meta.EnvSlots.size());
  for (size_t K = 0; K < Meta.EnvSlots.size(); ++K)
    Ctx.EnvEntries[K] = {Meta.EnvSlots[K].first,
                         Slots.tag(Meta.EnvSlots[K].second)};
  return true;
}

/// The paper's deoptlessCondition. Each refusal is counted by cause: the
/// guard failure becomes a true deopt.
bool deoptlessCondition(ExecContext &C, const LowFunction &F,
                        const DeoptMeta &Meta, bool Injected) {
  // A failed epoch check is a changed global assumption: a builtin the
  // code folded was really rebound, so the code is permanently invalid
  // and must actually deoptimize. The check is never injected.
  if (Meta.RKind == DeoptReasonKind::BuiltinEpoch) {
    ++C.Stats.DeoptlessSkipBuiltin;
    return false;
  }
  // No recursive deoptless: a guard failing inside a running continuation
  // fails in continuation code, whose inlined bodies are part of it
  // (callees are other code, and may still use deoptless).
  if (F.Conv == CallConv::Deoptless) {
    ++C.Stats.DeoptlessSkipRecursive;
    return false;
  }
  return true;
}

} // namespace

FeedbackTable rjit::repairedContinuationFeedback(Function *Fn,
                                                 const DeoptContext &Ctx,
                                                 bool CleanupEnabled) {
  // Repair the profile first (paper §4.3 "Incomplete Profile Data").
  DeoptSnapshot Snap;
  Snap.Pc = Ctx.Reason.ReasonPc;
  Snap.Kind = Ctx.Reason.Kind == DeoptReasonKind::Injected
                  ? DeoptReasonKind::Typecheck
                  : Ctx.Reason.Kind;
  Snap.FailedSlot = Ctx.Reason.FailedSlot;
  Snap.ActualTag = Ctx.Reason.ActualTag;
  for (unsigned K = 0; K < Ctx.EnvSize; ++K)
    Snap.EnvTags.push_back(Ctx.EnvEntries[K]);
  // Injected failures have nothing to repair: the guarded fact holds.
  bool Repair =
      CleanupEnabled && Ctx.Reason.Kind != DeoptReasonKind::Injected;
  return cleanupFeedback(*Fn, Snap, Repair);
}

EntryState rjit::continuationEntry(const DeoptContext &Ctx) {
  EntryState Entry;
  Entry.Pc = Ctx.Pc;
  for (unsigned K = 0; K < Ctx.StackSize; ++K) {
    Entry.StackTypes.push_back(RType::of(Ctx.StackTags[K]));
    Entry.StackBuiltins.push_back(Ctx.StackBuiltins[K]);
  }
  for (unsigned K = 0; K < Ctx.EnvSize; ++K)
    Entry.EnvTypes.push_back(
        {Ctx.EnvEntries[K].first, RType::of(Ctx.EnvEntries[K].second)});
  return Entry;
}

bool rjit::tryDeoptless(const LowFunction &F, const SlotView &Slots,
                        const DeoptMeta &Meta, Env *ParentEnv, bool Injected,
                        CodeTable<DeoptContext> &Table,
                        const ContinuationCompile &How, Value &Result) {
  ExecContext &C = currentContext();
  if (!deoptlessCondition(C, F, Meta, Injected))
    return false;
  VmStats &S = C.Stats;
  ++S.DeoptlessAttempts;
  // Instants carry the deopt pc (A) and, for rejects, a site code (B):
  // 0 = context too large, 1 = compile pending, 2 = refused (uncompilable,
  // table full or queue full).
  uint64_t Pc = static_cast<uint64_t>(Meta.BcPc);
  if (obs::traceOn())
    obs::traceEvent(obs::TraceEv::DeoptlessAttempt, 0, Pc);
  auto Reject = [&](uint64_t Site) {
    ++S.DeoptlessRejected;
    if (obs::traceOn())
      obs::traceEvent(obs::TraceEv::DeoptlessReject, 0, Pc, Site);
    return false;
  };

  DeoptContext Ctx;
  if (!computeContext(Slots, Meta, Injected, Ctx))
    return Reject(0);

  // A miss, or a hit strictly more generic than the current context,
  // requests a continuation for exactly this context (the recompile
  // heuristic: a table with room replaces a too-generic hit with a fresh
  // specialization). What the request published serves this failure; a
  // too-generic hit serves it while the specialization is pending or
  // refused. A miss with nothing published is a true deoptimization *this
  // time*: with a pool the executor never pauses to compile inside a
  // guard-failure handler.
  CodeEntry<DeoptContext> *Cont = Table.dispatch(Ctx);
  bool Compiled = false;
  if (!Cont || !(Cont->Ctx <= Ctx)) {
    CompileStatus R =
        requestContinuationCompile(How.Pool, continuationOwner(F, Meta), Ctx,
                                   Table, How.FeedbackCleanup, How.Opts);
    if (R == CompileStatus::Published) {
      Cont = Table.dispatch(Ctx);
      Compiled = true;
    } else if (!Cont) {
      return Reject(R == CompileStatus::Pending ? 1 : 2);
    }
  }
  if (!Compiled) {
    ++S.DeoptlessHits;
    if (obs::traceOn())
      obs::traceEvent(obs::TraceEv::DeoptlessHit, 0, Pc);
  }
  ++Cont->Hits;

  // Invoke the continuation directly with the live state: stack values
  // first, then the captured locals (the continuation's parameter order).
  std::vector<Value> Args;
  Args.reserve(Meta.StackSlots.size() + Meta.EnvSlots.size());
  for (LiveRef Ref : Meta.StackSlots)
    Args.push_back(Slots.get(Ref));
  for (auto &[Sym, Ref] : Meta.EnvSlots)
    Args.push_back(Slots.get(Ref));
  Result = Cont->code()->run(std::move(Args), /*CurEnv=*/nullptr, ParentEnv);

  // The continuation completed the innermost frame only; resume the
  // synthesized frames of the inlined callers in the baseline so the
  // activation yields the outermost caller's value.
  if (!Meta.Callers.empty()) {
    ++S.DeoptlessInlineDispatches;
    Result = resumeInlinedCallers(F, Slots, Meta, /*CurEnv=*/nullptr,
                                  ParentEnv, std::move(Result));
  }
  return true;
}
