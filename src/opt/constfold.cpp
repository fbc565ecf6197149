//===-- opt/constfold.cpp - Constant folding & branch pruning ------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/constfold.h"

using namespace rjit;

namespace {

bool isConst(const Instr *I) { return I->Op == IrOp::Const; }

/// Replaces \p I's value with constant \p V (inserted right before it).
void foldTo(IrCode &C, Instr *I, Value V) {
  BB *B = I->Parent;
  auto NewI = C.make(IrOp::Const,
                     V.isNull() ? RType::of(Tag::Null) : RType::of(V.tag()));
  NewI->Cst = std::move(V);
  NewI->Parent = B;
  for (size_t K = 0; K < B->Instrs.size(); ++K) {
    if (B->Instrs[K].get() == I) {
      B->Instrs.insert(B->Instrs.begin() + K, std::move(NewI));
      C.replaceAllUses(I, B->Instrs[K].get());
      return;
    }
  }
  assert(false && "instruction not in parent block");
}

} // namespace

bool rjit::foldConstants(IrCode &C) {
  bool Changed = false;
  std::vector<Instr *> Work;
  C.eachInstr([&](Instr *I) { Work.push_back(I); });

  for (Instr *I : Work) {
    switch (I->Op) {
    case IrOp::BinGen:
    case IrOp::BinTyped: {
      if (!isConst(I->op(0)) || !isConst(I->op(1)))
        break;
      try {
        foldTo(C, I, genericBinary(I->Bop, I->op(0)->Cst, I->op(1)->Cst));
        Changed = true;
      } catch (const RError &) {
        // Would raise at run time; leave it to do so.
      }
      break;
    }
    case IrOp::NegGen:
      if (isConst(I->op(0))) {
        try {
          foldTo(C, I, genericNeg(I->op(0)->Cst));
          Changed = true;
        } catch (const RError &) {
        }
      }
      break;
    case IrOp::NotGen:
      if (isConst(I->op(0))) {
        try {
          foldTo(C, I, genericNot(I->op(0)->Cst));
          Changed = true;
        } catch (const RError &) {
        }
      }
      break;
    case IrOp::AsCond:
      if (isConst(I->op(0))) {
        try {
          foldTo(C, I, Value::lgl(I->op(0)->Cst.asCondition()));
          Changed = true;
        } catch (const RError &) {
        }
      }
      break;
    case IrOp::LengthIr:
      if (isConst(I->op(0))) {
        foldTo(C, I,
               Value::integer(static_cast<int32_t>(I->op(0)->Cst.length())));
        Changed = true;
      }
      break;
    case IrOp::CoerceNum:
      if (isConst(I->op(0))) {
        try {
          foldTo(C, I, coerceScalar(I->op(0)->Cst, I->Knd));
          Changed = true;
        } catch (const RError &) {
        }
      }
      break;
    case IrOp::IsTagIr:
      if (isConst(I->op(0))) {
        foldTo(C, I, Value::lgl(I->op(0)->Cst.tag() == I->TagArg));
        Changed = true;
      } else if (!I->op(0)->Type.isNone() &&
                 I->op(0)->Type.isExactly(I->TagArg)) {
        // The guard is statically satisfied: the speculation was proven.
        foldTo(C, I, Value::lgl(true));
        Changed = true;
      }
      break;
    case IrOp::CastType:
      if (isConst(I->op(0)) && I->op(0)->Cst.tag() == I->TagArg) {
        foldTo(C, I, I->op(0)->Cst);
        Changed = true;
      }
      break;
    case IrOp::CallVal:
      // A callee that became a builtin constant — a merge of one folded
      // global builtin, a continuation's stack builtin — is a direct call.
      if (isConst(I->op(0)) && I->op(0)->Cst.tag() == Tag::Builtin) {
        I->Op = IrOp::CallBuiltinKnown;
        I->Bid = I->op(0)->Cst.builtinId();
        I->Ops.erase(I->Ops.begin());
        Changed = true;
      }
      break;
    default:
      break;
    }
  }

  // Remove Assumes whose condition folded to constant TRUE.
  for (auto &B : C.Blocks) {
    auto &Is = B->Instrs;
    for (size_t K = 0; K < Is.size();) {
      Instr *I = Is[K].get();
      if (I->Op == IrOp::AssumeIr && isConst(I->op(0)) &&
          I->op(0)->Cst.tag() == Tag::Lgl && I->op(0)->Cst.asLglUnchecked()) {
        Is.erase(Is.begin() + K);
        Changed = true;
        continue;
      }
      ++K;
    }
  }

  // Prune branches on constant conditions.
  for (auto &B : C.Blocks) {
    Instr *T = B->terminator();
    if (!T || T->Op != IrOp::BranchIr || !isConst(T->op(0)))
      continue;
    bool Taken;
    try {
      Taken = T->op(0)->Cst.asCondition();
    } catch (const RError &) {
      continue;
    }
    BB *Keep = Taken ? B->Succs[0] : B->Succs[1];
    BB *Drop = Taken ? B->Succs[1] : B->Succs[0];
    T->Op = IrOp::Jump;
    T->Ops.clear();
    B->Succs[0] = Keep;
    B->Succs[1] = nullptr;
    if (Drop && Drop != Keep)
      IrCode::removeEdge(B.get(), Drop);
    Changed = true;
  }

  return Changed;
}
