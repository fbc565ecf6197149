//===-- bc/bytecode.cpp - Baseline bytecode format --------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bc/bytecode.h"

using namespace rjit;

const char *rjit::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::PushConst:
    return "push";
  case Opcode::LdVar:
    return "ldvar";
  case Opcode::StVar:
    return "stvar";
  case Opcode::StVarSuper:
    return "stvar<<";
  case Opcode::Dup:
    return "dup";
  case Opcode::Pop:
    return "pop";
  case Opcode::PopN:
    return "popn";
  case Opcode::MkClosure:
    return "mkclos";
  case Opcode::Call:
    return "call";
  case Opcode::BinBc:
    return "binop";
  case Opcode::NegBc:
    return "neg";
  case Opcode::NotBc:
    return "not";
  case Opcode::AsLogicalBc:
    return "aslgl";
  case Opcode::Extract2:
    return "idx2";
  case Opcode::Extract1:
    return "idx1";
  case Opcode::SetIdx2:
    return "setidx2";
  case Opcode::Branch:
    return "br";
  case Opcode::BranchFalse:
    return "brfalse";
  case Opcode::ForStep:
    return "forstep";
  case Opcode::Return:
    return "ret";
  }
  return "?";
}

std::string rjit::disassemble(const Code &C) {
  std::string S;
  for (size_t Pc = 0; Pc < C.Instrs.size(); ++Pc) {
    const BcInstr &I = C.Instrs[Pc];
    S += std::to_string(Pc) + ": " + opcodeName(I.Op);
    switch (I.Op) {
    case Opcode::PushConst:
      S += " " + C.Consts[I.A].show();
      break;
    case Opcode::LdVar:
    case Opcode::StVar:
    case Opcode::StVarSuper:
      S += " " + symbolName(static_cast<Symbol>(I.A));
      break;
    case Opcode::SetIdx2:
      S += " " + symbolName(static_cast<Symbol>(I.A));
      break;
    case Opcode::BinBc:
      S += std::string(" ") + binOpName(static_cast<BinOp>(I.A));
      break;
    case Opcode::Call:
    case Opcode::PopN:
    case Opcode::MkClosure:
      S += " " + std::to_string(I.A);
      break;
    case Opcode::Branch:
    case Opcode::BranchFalse:
      S += " -> " + std::to_string(I.A);
      break;
    case Opcode::ForStep:
      S += " " + symbolName(static_cast<Symbol>(I.A)) + " exit -> " +
           std::to_string(I.B);
      break;
    default:
      break;
    }
    S += "\n";
  }
  return S;
}
