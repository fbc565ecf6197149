//===-- osr/deopt.cpp - The deopt primitive (OSR-out) ---------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "osr/deopt.h"
#include "bc/interp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/stats.h"
#include "support/timer.h"

using namespace rjit;

namespace {

/// Runs one reconstructed interpreter frame: materializes an environment
/// (unless \p LiveEnv is provided), pushes \p Stack and resumes \p Fn at
/// \p Pc.
Value runFrame(Function *Fn, Env *LiveEnv, Env *ParentEnv,
               const std::vector<std::pair<Symbol, LiveRef>> &EnvSlots,
               const SlotView &Slots, std::vector<Value> &&Stack,
               int32_t Pc) {
  Env *E = LiveEnv;
  Value Hold; // keeps a materialized environment alive for the run
  if (!E) {
    E = new Env(ParentEnv);
    Hold = Value::environment(E);
    for (const auto &[Sym, Ref] : EnvSlots)
      E->set(Sym, Slots.get(Ref));
  }
  return interpretResume(Fn, E, std::move(Stack), Pc);
}

} // namespace

Value rjit::resumeInlinedCallers(const LowFunction &F,
                                 const SlotView &Slots,
                                 const DeoptMeta &Meta, Env *CurEnv,
                                 Env *ParentEnv, Value Inner) {
  Value R = std::move(Inner);
  for (size_t K = 0; K < Meta.Callers.size(); ++K) {
    const DeoptFrame &Fr = Meta.Callers[K];
    ++stats().InlineFramesMaterialized;
    // Only the outermost frame can be the code's own (possibly real-env)
    // frame; every inner caller was itself inlined and is thus elided.
    bool Outermost = K + 1 == Meta.Callers.size();
    std::vector<Value> Stack;
    Stack.reserve(Fr.StackSlots.size() + 1);
    for (LiveRef Ref : Fr.StackSlots)
      Stack.push_back(Slots.get(Ref));
    Stack.push_back(std::move(R));
    R = runFrame(Fr.Fn ? Fr.Fn : F.Origin, Outermost ? CurEnv : nullptr,
                 ParentEnv, Fr.EnvSlots, Slots, std::move(Stack), Fr.BcPc);
  }
  return R;
}

Value rjit::deoptToBaseline(const LowFunction &F, const SlotView &Slots,
                            const DeoptMeta &Meta, Env *CurEnv,
                            Env *ParentEnv) {
  uint64_t T0 = nowNanos();
  ++stats().Deopts;
  bool Inlined = !Meta.Callers.empty();
  if (Inlined) {
    ++stats().MultiFrameDeopts;
    ++stats().InlineFramesMaterialized; // the innermost frame, below
  }

  // Materialize the innermost frame. Real-env code resumes with its live
  // environment (only possible when the guard is not inside an inlined
  // callee — inlined bodies are always env-elided); elided code
  // materializes one from the framestate — the deferred MkEnv of paper
  // Listing 2.
  std::vector<Value> Stack;
  Stack.reserve(Meta.StackSlots.size());
  for (LiveRef Ref : Meta.StackSlots)
    Stack.push_back(Slots.get(Ref));
  // The pause histogram covers only the transfer cost (frame
  // materialization up to the resume); the trace span below also covers
  // the baseline execution the deopt fell back into.
  obs::metrics().DeoptPause.record(nowNanos() - T0);
  Value R = runFrame(Meta.FrameFn ? Meta.FrameFn : F.Origin,
                     Inlined ? nullptr : CurEnv, ParentEnv, Meta.EnvSlots,
                     Slots, std::move(Stack), Meta.BcPc);

  // Unwind the synthesized frames of the inlined callers.
  R = resumeInlinedCallers(F, Slots, Meta, CurEnv, ParentEnv, std::move(R));
  if (obs::traceOn())
    obs::traceEvent(obs::TraceEv::Deopt, nowNanos() - T0,
                    static_cast<uint64_t>(Meta.BcPc), Inlined);
  return R;
}
