//===-- opt/pipeline.cpp - Optimization pipeline -------------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/pipeline.h"
#include "compile/snapshot.h"
#include "opt/constfold.h"
#include "opt/dce.h"
#include "opt/inference.h"
#include "opt/inline.h"
#include "opt/licm.h"
#include "opt/lowertyped.h"
#include "opt/peel.h"
#include "runtime/context.h"

#include <cstdio>

using namespace rjit;

namespace {

/// Finds Assume guards that can never pass per the (sound) inferred types:
/// these arise from stale type feedback (e.g. an accumulator that was an
/// int in the profile but is provably a double on the continuation's
/// path). Repairs the corresponding feedback slot with the inferred type
/// so a recompile speculates correctly — the paper's §4.3 "run [type
/// inference] on the type feedback and use the result to update the
/// expected type". Returns true when any slot was repaired.
///
/// With speculative inlining a guard's feedback slot belongs to the
/// function of its *frame* (an inlined callee's guard indexes the callee's
/// table), resolved from the guard's framestate.
bool repairContradictedFeedback(IrCode &C, Function *Fn) {
  bool Repaired = false;
  C.eachInstr([&](Instr *I) {
    if (I->Op != IrOp::AssumeIr || I->Ops.empty())
      return;
    Instr *Cond = I->op(0);
    RType Have = RType::none();
    if (Cond->Op == IrOp::IsTagIr) {
      Have = Cond->op(0)->Type;
      if (Have.isNone() || Have.isAny())
        return;
      if (!Have.meet(RType::of(Cond->TagArg)).isNone())
        return; // the guard can pass
    } else if (Cond->Op == IrOp::Const && I->RKind ==
               DeoptReasonKind::Typecheck) {
      // Constant folding already proved the condition; a FALSE residue is
      // an always-failing tag guard (e.g. speculation on a value that
      // folded to a constant of another kind) that must not ship.
      if (Cond->Cst.tag() != Tag::Lgl || Cond->Cst.asLglUnchecked())
        return;
    } else {
      return;
    }
    Function *Owner = Fn;
    if (I->Ops.size() == 2 && I->op(1)->Op == IrOp::CheckpointIr) {
      Instr *Fs = I->op(1)->op(0);
      if (Fs->Target)
        Owner = Fs->Target;
    }
    int32_t SlotIdx = I->Idx;
    FeedbackTable &Profile = profileOf(Owner);
    if (SlotIdx < 0 ||
        SlotIdx >= static_cast<int32_t>(Profile.Types.size()))
      return;
    TypeFeedback &FB = Profile.Types[SlotIdx];
    // Widen, don't overwrite: the contradiction may be local to this
    // compilation (a context-specialized entry type, an inlined argument)
    // while other call shapes still see the profiled type. Joining makes
    // the slot polymorphic, so the retry stops speculating on it; a reset
    // would poison the profile for every other context.
    if (Have.precise())
      FB.record(Have.uniqueTag());
    else
      FB.clear();
    Repaired = true;
  });
  return Repaired;
}

} // namespace

std::unique_ptr<IrCode> rjit::optimizeToIr(Function *Fn, CallConv Conv,
                                           const EntryState &Entry,
                                           const OptOptions &Opts) {
  std::unique_ptr<IrCode> C;
  uint32_t Inlined = 0;
  uint32_t Peeled = 0;
  LoopOptStats Loop;

  // The between-pass invariant gate (Opts.VerifyEachPass, debug/CI
  // builds): every structural invariant — dominance of definitions over
  // uses included — is re-checked after each pass, so a pass that breaks
  // the IR fails the compile *at that pass* even when the final output
  // would happen to verify or execute plausibly.
  bool GateFailed = false;
  auto Gate = [&](const char *Pass) {
    if (!Opts.VerifyEachPass || GateFailed)
      return !GateFailed;
    std::string Err = verify(*C);
    if (Err.empty())
      return true;
    fprintf(stderr, "rjit: IR verification failed after %s for '%s': %s\n",
            Pass, symbolName(Fn->Name).c_str(), Err.c_str());
    assert(false && "between-pass IR verification failed");
    GateFailed = true;
    return false;
  };

  for (int Attempt = 0; Attempt < 4; ++Attempt) {
    C = translate(Fn, Conv, Entry, Opts);
    if (!C)
      return nullptr;
    if (!Gate("translate"))
      return nullptr;

    // Inline before inference so the spliced callee bodies participate in
    // type refinement and typed lowering (unboxing) like native code.
    Inlined = inlineCalls(*C, Opts);
    if (!Gate("inline"))
      return nullptr;

    auto Fixpoint = [&]() {
      bool Changed = true;
      int Rounds = 0;
      while (Changed && Rounds++ < 8) {
        Changed = false;
        Changed |= inferTypes(*C);
        if (!Gate("inference"))
          return false;
        Changed |= lowerTypedOps(*C);
        if (!Gate("lowertyped"))
          return false;
        Changed |= foldConstants(*C);
        if (!Gate("constfold"))
          return false;
        Changed |= deadCodeElim(*C);
        if (!Gate("dce"))
          return false;
      }
      return true;
    };
    if (!Fixpoint())
      return nullptr;

    // The loop layer runs on the typed, folded IR (so strength-reduced
    // arithmetic and refinement casts are what gets hoisted), then one
    // more fixpoint cleans up behind it: spent anchors, detached
    // checkpoints of moved guards, types refined by hoisted casts.
    // Peeling goes first and decides from the inferred phi types; the
    // fixpoint after it retypes the peeled loop, so LICM and guard
    // hoisting see loop-carried values of one kind.
    Loop = LoopOptStats();
    if (Opts.Loop) {
      Peeled = peelLoops(*C);
      if (Peeled && (!Gate("peel") || !Fixpoint()))
        return nullptr;
      Loop = runLoopOpts(*C);
      if (!Gate("loopopts"))
        return nullptr;
      if (!Fixpoint())
        return nullptr;
    }

    if (!Opts.Speculate || !repairContradictedFeedback(*C, Fn))
      break; // no stale guards left
  }

  std::string Err = verify(*C);
  if (!Err.empty()) {
    // A verifier failure is a compiler bug; be loud in debug builds and
    // fail the compilation (keeping the baseline correct) in release.
    fprintf(stderr, "rjit: IR verification failed for '%s': %s\n",
            symbolName(Fn->Name).c_str(), Err.c_str());
    assert(false && "IR verification failed");
    return nullptr;
  }
  VmStats &S = contextOr(Opts.Ctx).Stats;
  S.InlinedCalls += Inlined;
  S.PeeledLoops += Peeled;
  S.HoistedInstrs += Loop.HoistedInstrs;
  S.HoistedGuards += Loop.HoistedGuards;
  S.EliminatedGuards += Loop.EliminatedGuards;
  return C;
}
