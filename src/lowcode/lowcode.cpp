//===-- lowcode/lowcode.cpp - Low-level code format ----------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lowcode/lowcode.h"

using namespace rjit;

namespace {

/// One frame's frame-state references: stack values, then named locals,
/// each as its class letter (s = boxed, i = raw int, d = raw double) and
/// slot, e.g. "[s4 x=i3 y=d5]".
std::string printFrameState(
    const std::vector<LiveRef> &Stack,
    const std::vector<std::pair<Symbol, LiveRef>> &Env) {
  auto Ref = [](LiveRef R) {
    const char *K = R.K == SlotClass::RawInt    ? "i"
                    : R.K == SlotClass::RawReal ? "d"
                                                : "s";
    return K + std::to_string(R.Slot);
  };
  std::string S = "[";
  for (LiveRef R : Stack)
    S += (S.size() > 1 ? " " : "") + Ref(R);
  for (const auto &[Sym, R] : Env)
    S += (S.size() > 1 ? " " : "") + symbolName(Sym) + "=" + Ref(R);
  return S + "]";
}

} // namespace

std::string rjit::printLow(const LowFunction &F) {
  std::string S = "lowfn ";
  S += F.Origin ? symbolName(F.Origin->Name) : "?";
  S += " slots=" + std::to_string(F.NumSlots) +
       " params=" + std::to_string(F.NumParams) +
       " guards=" + std::to_string(F.GuardCount) + "\n";
  for (size_t Pc = 0; Pc < F.Code.size(); ++Pc) {
    const LowInstr &I = F.Code[Pc];
    S += std::to_string(Pc) + ": " + lowOpName(I.Op);
    S += " d" + std::to_string(I.Dst) + " a" + std::to_string(I.A) + " b" +
         std::to_string(I.B) + " c" + std::to_string(I.C);
    if (isBranch(I.Op))
      S += " -> " + std::to_string(I.Imm);
    else if (I.Imm)
      S += " imm=" + std::to_string(I.Imm);
    if (I.Op == LowOp::GuardCond || I.Op == LowOp::EpochCheck) {
      const DeoptMeta &M = F.Deopts[I.Imm];
      S += std::string(" [") + deoptReasonName(M.RKind) +
           " pc=" + std::to_string(M.BcPc) + "]";
      S += " fs=" + printFrameState(M.StackSlots, M.EnvSlots);
      for (const DeoptFrame &C : M.Callers)
        S += " caller@" + std::to_string(C.BcPc) + "=" +
             printFrameState(C.StackSlots, C.EnvSlots);
    }
    S += "\n";
  }
  return S;
}
