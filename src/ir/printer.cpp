//===-- ir/printer.cpp - IR text rendering -----------------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/instr.h"

using namespace rjit;

namespace {

std::string ref(const Instr *I) { return "%" + std::to_string(I->Id); }

void printInstr(const Instr &I, std::string &S) {
  S += "  ";
  S += ref(&I) + ":" + I.Type.str() + " = " + irOpName(I.Op);
  switch (I.Op) {
  case IrOp::Const:
    S += " " + I.Cst.show();
    break;
  case IrOp::Param:
    S += " #" + std::to_string(I.Idx);
    break;
  case IrOp::LdVarEnv:
  case IrOp::StVarEnv:
  case IrOp::StVarSuperEnv:
  case IrOp::SetIdx2Env:
  case IrOp::SetIdx1Env:
    S += " " + symbolName(I.Sym);
    break;
  case IrOp::BinGen:
  case IrOp::BinTyped:
    S += std::string(" ") + binOpName(I.Bop);
    if (I.Op == IrOp::BinTyped)
      S += std::string("<") + tagName(I.Knd) + ">";
    break;
  case IrOp::Extract2Typed:
  case IrOp::SetElem2Typed:
    S += std::string("<") + tagName(I.Knd) + ">";
    break;
  case IrOp::CallBuiltinKnown:
    S += std::string(" ") + builtinName(I.Bid);
    break;
  case IrOp::CallStatic:
  case IrOp::IsFunIr:
    S += " @" + (I.Target ? symbolName(I.Target->Name) : "?");
    break;
  case IrOp::IsTagIr:
    S += std::string(" ") + tagName(I.TagArg);
    break;
  case IrOp::MkClosureIr:
    S += " inner#" + std::to_string(I.Idx);
    break;
  case IrOp::FrameStateIr:
    S += " pc=" + std::to_string(I.BcPc) +
         " stack=" + std::to_string(I.StackCount);
    if (I.Target)
      S += " fn=" + symbolName(I.Target->Name);
    if (I.HasParentFs)
      S += " caller=" + ref(I.Ops.back());
    break;
  case IrOp::AssumeIr:
  case IrOp::EpochCheckIr:
    S += std::string(" [") + deoptReasonName(I.RKind) + "@" +
         std::to_string(I.BcPc) + "]";
    break;
  case IrOp::CheckpointIr:
    if (I.Anchor)
      S += " anchor"; // loop-header entry state (see opt/licm)
    break;
  default:
    break;
  }
  if (!I.Ops.empty()) {
    S += " (";
    for (size_t K = 0; K < I.Ops.size(); ++K) {
      if (K)
        S += ", ";
      S += ref(I.Ops[K]);
    }
    S += ")";
  }
  if (I.Op == IrOp::FrameStateIr && !I.EnvSyms.empty()) {
    S += " env={";
    for (size_t K = 0; K < I.EnvSyms.size(); ++K) {
      if (K)
        S += ", ";
      S += symbolName(I.EnvSyms[K]);
    }
    S += "}";
  }
  S += "\n";
}

} // namespace

std::string rjit::print(const IrCode &C) {
  std::string S;
  S += "ir ";
  S += C.Origin ? symbolName(C.Origin->Name) : "?";
  S += " entrypc=" + std::to_string(C.EntryPc);
  switch (C.Conv) {
  case CallConv::FullEnv:
    S += " [env]";
    break;
  case CallConv::FullElided:
    S += " [elided]";
    break;
  case CallConv::OsrIn:
    S += " [osr-in]";
    break;
  case CallConv::Deoptless:
    S += " [deoptless]";
    break;
  }
  S += "\n";
  for (BB *B : C.rpo()) {
    S += "BB" + std::to_string(B->Id) + ":";
    if (!B->Preds.empty()) {
      S += "  ; preds:";
      for (BB *P : B->Preds)
        S += " BB" + std::to_string(P->Id);
    }
    S += "\n";
    for (auto &I : B->Instrs)
      printInstr(*I, S);
    if (B->Succs[0]) {
      S += "  -> BB" + std::to_string(B->Succs[0]->Id);
      if (B->Succs[1])
        S += ", BB" + std::to_string(B->Succs[1]->Id);
      S += "\n";
    }
  }
  return S;
}
