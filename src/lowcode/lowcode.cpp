//===-- lowcode/lowcode.cpp - Low-level code format ----------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lowcode/lowcode.h"

using namespace rjit;

const char *rjit::lowOpName(LowOp Op) {
  switch (Op) {
  case LowOp::LoadConst:
    return "ldc";
  case LowOp::Move:
    return "mov";
  case LowOp::Box:
    return "box";
  case LowOp::Unbox:
    return "unbox";
  case LowOp::Coerce:
    return "coerce";
  case LowOp::LdEnv:
    return "ldenv";
  case LowOp::StEnv:
    return "stenv";
  case LowOp::StEnvSuper:
    return "stenv<<";
  case LowOp::MkClosLow:
    return "mkclos";
  case LowOp::CallValLow:
    return "call";
  case LowOp::CallBiLow:
    return "callbi";
  case LowOp::CallStaticLow:
    return "callstatic";
  case LowOp::ArithTyped:
    return "arith.t";
  case LowOp::BinGenLow:
    return "bin";
  case LowOp::NegLow:
    return "neg";
  case LowOp::NotLow:
    return "not";
  case LowOp::AsCondLow:
    return "ascond";
  case LowOp::Extract2Low:
    return "idx2";
  case LowOp::Extract1Low:
    return "idx1";
  case LowOp::Extract2Typed:
    return "idx2.t";
  case LowOp::SetElem2Low:
    return "setelem2";
  case LowOp::SetElem2Typed:
    return "setelem2.t";
  case LowOp::SetIdx2EnvLow:
    return "setidx2env";
  case LowOp::SetIdx1EnvLow:
    return "setidx1env";
  case LowOp::LengthLow:
    return "length";
  case LowOp::GuardCond:
    return "guard";
  case LowOp::JumpLow:
    return "jump";
  case LowOp::BranchFalseLow:
    return "brfalse";
  case LowOp::BranchTrueLow:
    return "brtrue";
  case LowOp::CmpBranch:
    return "cmpbr";
  case LowOp::RetLow:
    return "ret";
  }
  return "?";
}

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
    if (I.Op == LowOp::JumpLow || I.Op == LowOp::BranchFalseLow ||
        I.Op == LowOp::BranchTrueLow || I.Op == LowOp::CmpBranch)
      S += " -> " + std::to_string(I.Imm);
    else if (I.Imm)
      S += " imm=" + std::to_string(I.Imm);
    if (I.Op == LowOp::GuardCond) {
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
