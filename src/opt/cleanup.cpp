//===-- opt/cleanup.cpp - Feedback cleanup & inference -------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/cleanup.h"

#include "compile/snapshot.h"

using namespace rjit;

FeedbackTable rjit::cleanupFeedback(const Function &Fn,
                                    const DeoptSnapshot &S, bool Enabled) {
  FeedbackTable FB = profileOf(&Fn);
  if (!Enabled)
    return FB;

  // (1) Inject the deopt reason: the failed slot now knows the truth.
  if (S.Kind == DeoptReasonKind::Typecheck && S.FailedSlot >= 0 &&
      S.FailedSlot < static_cast<int32_t>(FB.Types.size()) &&
      S.ActualTag != Tag::Null)
    FB.Types[S.FailedSlot].reset(S.ActualTag);

  // (2) Check variable-bound profiles against the live state: LdVar slots
  // are tied to a symbol through the bytecode, so contradictions with the
  // captured context are repairable precisely.
  if (!S.EnvTags.empty()) {
    for (const BcInstr &I : Fn.BC.Instrs) {
      if (I.Op != Opcode::LdVar)
        continue;
      Symbol Sym = static_cast<Symbol>(I.A);
      for (const auto &[CtxSym, CtxTag] : S.EnvTags) {
        if (CtxSym != Sym)
          continue;
        TypeFeedback &T = FB.Types[I.B];
        if (!T.empty() && !T.seen(CtxTag)) {
          // Profile contradicts the current value: replace it with what we
          // know to be true right now.
          T.reset(CtxTag);
        }
        break;
      }
    }
  }

  // (3) Mark remaining profiles at the deopt point itself stale: a failed
  // call-target or polymorphic guard at this pc says nothing useful
  // anymore. (Downstream "inference on the non-stale feedback" happens
  // structurally in opt/inference when the continuation is compiled.)
  if (S.Pc >= 0 && S.Pc < static_cast<int32_t>(Fn.BC.Instrs.size())) {
    const BcInstr &I = Fn.BC.Instrs[S.Pc];
    switch (I.Op) {
    case Opcode::BinBc:
      if (S.Kind != DeoptReasonKind::Typecheck) {
        FB.Types[I.B].clear();
        FB.Types[I.B + 1].clear();
      }
      break;
    case Opcode::Call:
      if (S.Kind == DeoptReasonKind::CallTarget ||
          S.Kind == DeoptReasonKind::BuiltinGuard) {
        FB.Calls[I.B].Megamorphic = true; // do not re-speculate this site
        // The variable the callee came from was rebound: every other call
        // reading its callee from it profiled the old binding too.
        const std::vector<Symbol> &Vars = Fn.BC.CallVars;
        Symbol Var = static_cast<size_t>(I.B) < Vars.size() ? Vars[I.B]
                                                            : NoSymbol;
        for (size_t K = 0; Var != NoSymbol && K < Vars.size(); ++K)
          if (Vars[K] == Var)
            FB.Calls[K].Megamorphic = true;
      }
      break;
    default:
      break;
    }
  }

  return FB;
}
