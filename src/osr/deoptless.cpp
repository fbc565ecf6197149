//===-- osr/deoptless.cpp - Dispatched specialized continuations ---------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "osr/deoptless.h"
#include "compile/service.h"
#include "compile/snapshot.h"
#include "lowcode/exec.h"
#include "lowcode/lower.h"
#include "obs/trace.h"
#include "opt/cleanup.h"
#include "opt/pipeline.h"
#include "osr/deopt.h"
#include "support/timer.h"

using namespace rjit;

namespace {

/// A guard failing at the call depth of the innermost running
/// continuation is *recursive* deoptless (ExecContext::ContinuationDepths).
bool inRecursiveDeoptless(const ExecContext &C) {
  return !C.ContinuationDepths.empty() &&
         C.ContinuationDepths.back() == C.CallDepth;
}

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
  for (size_t K = 0; K < Meta.StackSlots.size(); ++K)
    Ctx.StackTags[K] = Slots.tag(Meta.StackSlots[K]);
  Ctx.EnvSize = static_cast<uint16_t>(Meta.EnvSlots.size());
  for (size_t K = 0; K < Meta.EnvSlots.size(); ++K)
    Ctx.EnvEntries[K] = {Meta.EnvSlots[K].first,
                         Slots.tag(Meta.EnvSlots[K].second)};
  return true;
}

/// The paper's deoptlessCondition. Each refusal is counted by cause: the
/// guard failure becomes a true deopt.
bool deoptlessCondition(ExecContext &C, const DeoptMeta &Meta,
                        bool Injected) {
  if (inRecursiveDeoptless(C)) {
    ++C.Stats.DeoptlessSkipRecursive; // no recursive deoptless
    return false;
  }
  // A real builtin redefinition is a changed global assumption: the code
  // is permanently invalid and must actually deoptimize. Injected test
  // failures leave the fact intact.
  if (Meta.RKind == DeoptReasonKind::BuiltinGuard && !Injected) {
    ++C.Stats.DeoptlessSkipBuiltin;
    return false;
  }
  return true;
}

/// Compiles a continuation for \p Ctx (with repaired feedback), the
/// synchronous path: repair and compile inline on the executor thread.
std::unique_ptr<ExecutableCode>
compileContinuation(Function *Fn, const DeoptContext &Ctx,
                    const ContinuationCompile &How) {
  // Compile against the repaired profile. The partial snapshot overrides
  // only \p Fn — inlined callees read (and repair) their live tables,
  // which is safe here: this thread owns them.
  FeedbackSnapshot Partial;
  Partial.replace(Fn,
                  repairedContinuationFeedback(Fn, Ctx, How.FeedbackCleanup));
  SnapshotScope Scope(Partial);
  return compileContinuationCode(Fn, Ctx, How.Opts);
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

std::unique_ptr<ExecutableCode>
rjit::compileContinuationCode(Function *Fn, const DeoptContext &Ctx,
                              const OptOptions &Opts) {
  EntryState Entry;
  Entry.Pc = Ctx.Pc;
  for (unsigned K = 0; K < Ctx.StackSize; ++K)
    Entry.StackTypes.push_back(RType::of(Ctx.StackTags[K]));
  for (unsigned K = 0; K < Ctx.EnvSize; ++K)
    Entry.EnvTypes.push_back(
        {Ctx.EnvEntries[K].first, RType::of(Ctx.EnvEntries[K].second)});

  uint64_t T0 = nowNanos();
  std::unique_ptr<IrCode> Ir =
      optimizeToIr(Fn, CallConv::Deoptless, Entry, Opts);
  if (!Ir)
    return nullptr;
  std::unique_ptr<ExecutableCode> Code =
      prepareExecutable(Opts.Backend, lowerToLow(*Ir));
  uint64_t Dur = nowNanos() - T0;
  contextOr(Opts.Ctx).Metrics.CompileLatency.record(Dur);
  if (obs::traceOn())
    obs::traceEvent(obs::TraceEv::CompileFinish, Dur,
                    static_cast<uint64_t>(Ctx.Pc), obs::CompileKindCont);
  return Code;
}

Continuation *DeoptlessTable::dispatch(const DeoptContext &Ctx) {
  // The table is kept sorted most-specialized-first; take the first
  // compatible entry (paper §4.3). The snapshot is immutable, so the scan
  // is safe against a background job publishing concurrently.
  for (Continuation *E : snapshot())
    if (Ctx <= E->Ctx)
      return E;
  return nullptr;
}

bool DeoptlessTable::insert(DeoptContext Ctx,
                            std::unique_ptr<ExecutableCode> Code) {
  std::lock_guard<std::mutex> L(WriterMu);
  const std::vector<Continuation *> &Cur = snapshot();
  if (Cur.size() >= Cap)
    return false;
  for (Continuation *E : Cur)
    if (Ctx <= E->Ctx && E->Ctx <= Ctx)
      return false; // equal context already published (lost a race)

  auto E = std::make_unique<Continuation>();
  E->Ctx = Ctx;
  E->Code = std::move(Code);

  // Linearize the partial order: more specialized entries first.
  size_t Pos = 0;
  while (Pos < Cur.size() && !(Ctx <= Cur[Pos]->Ctx))
    ++Pos;
  List.insertAt(Pos, std::move(E));
  return true;
}

bool rjit::tryDeoptless(const LowFunction &F, const SlotView &Slots,
                        const DeoptMeta &Meta, Env *ParentEnv, bool Injected,
                        DeoptlessTable &Table, const ContinuationCompile &How,
                        Value &Result) {
  ExecContext &C = currentContext();
  if (!deoptlessCondition(C, Meta, Injected))
    return false;
  VmStats &S = C.Stats;
  ++S.DeoptlessAttempts;
  // Instants carry the deopt pc (A) and, for rejects, a site code (B):
  // 0 = context too large, 1 = async miss, 2 = uncompilable/table full,
  // 3 = post-insert dispatch miss.
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

  Function *Fn = continuationOwner(F, Meta);
  Continuation *Cont = Table.dispatch(Ctx);

  // Recompile heuristic: a hit that is strictly more generic than the
  // current context is replaced by a fresh specialization while the table
  // has room.
  bool TooGeneric = Cont && !(Cont->Ctx <= Ctx) && !Table.full();
  bool Compiled = false;
  if ((!Cont || TooGeneric) && How.Pool) {
    // Background mode: request the continuation and keep going. A miss
    // falls back to a true deoptimization *this time*; a too-generic hit
    // still serves the current failure while the specialization compiles
    // for the next one. Either way the executor never pauses to compile
    // inside a guard-failure handler.
    requestContinuationCompile(*How.Pool, Fn, Ctx, &Table,
                               How.FeedbackCleanup, How.Opts);
    if (!Cont)
      return Reject(1);
  } else if (!Cont || TooGeneric) {
    std::unique_ptr<ExecutableCode> Code = compileContinuation(Fn, Ctx, How);
    if (!Code || Table.full())
      return Reject(2);
    ++S.DeoptlessCompiles;
    if (obs::traceOn())
      obs::traceEvent(obs::TraceEv::DeoptlessCompile, 0, Pc);
    Table.insert(Ctx, std::move(Code));
    Cont = Table.dispatch(Ctx);
    if (!Cont)
      return Reject(3);
    Compiled = true;
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

  C.ContinuationDepths.push_back(C.CallDepth);
  try {
    Result = Cont->Code->run(std::move(Args), /*CurEnv=*/nullptr,
                             ParentEnv);
  } catch (...) {
    C.ContinuationDepths.pop_back();
    throw;
  }
  C.ContinuationDepths.pop_back();

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
