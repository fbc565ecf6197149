//===-- opt/lowertyped.cpp - Typed-op strength reduction -----------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/lowertyped.h"

using namespace rjit;

namespace {

int scalarRank(RType T) {
  if (T.isExactly(Tag::Lgl))
    return 0;
  if (T.isExactly(Tag::Int))
    return 1;
  if (T.isExactly(Tag::Real))
    return 2;
  if (T.isExactly(Tag::Cplx))
    return 3;
  return -1;
}

Tag rankTag(int R) {
  switch (R) {
  case 0:
    return Tag::Lgl;
  case 1:
    return Tag::Int;
  case 2:
    return Tag::Real;
  default:
    return Tag::Cplx;
  }
}

/// Inserts a fresh instruction immediately before \p Before in its block.
Instr *insertBefore(IrCode &C, Instr *Before, IrOp Op, RType T,
                    std::initializer_list<Instr *> Ops) {
  BB *B = Before->Parent;
  auto I = C.make(Op, T);
  I->Ops.assign(Ops);
  I->Parent = B;
  for (size_t K = 0; K < B->Instrs.size(); ++K) {
    if (B->Instrs[K].get() == Before) {
      B->Instrs.insert(B->Instrs.begin() + K, std::move(I));
      return B->Instrs[K].get();
    }
  }
  assert(false && "instruction not found in its parent block");
  return nullptr;
}

/// Coerces \p V (a scalar numeric) to kind \p K if needed.
Instr *coerceTo(IrCode &C, Instr *Before, Instr *V, int K) {
  if (scalarRank(V->Type) == K)
    return V;
  Instr *Co = insertBefore(C, Before, IrOp::CoerceNum, RType::of(rankTag(K)),
                           {V});
  Co->Knd = rankTag(K);
  return Co;
}

} // namespace

bool rjit::lowerTypedOps(IrCode &C) {
  bool Changed = false;
  // Collect first: we mutate blocks while iterating otherwise.
  std::vector<Instr *> Work;
  C.eachInstr([&](Instr *I) { Work.push_back(I); });

  for (Instr *I : Work) {
    switch (I->Op) {
    case IrOp::BinGen: {
      if (I->Bop == BinOp::Colon || I->Bop == BinOp::And ||
          I->Bop == BinOp::Or)
        break;
      int RA = scalarRank(I->op(0)->Type);
      int RB = scalarRank(I->op(1)->Type);
      if (RA < 0 || RB < 0)
        break;
      int K = std::max(RA, RB);
      if (K == 3 && !(I->Bop == BinOp::Add || I->Bop == BinOp::Sub ||
                      I->Bop == BinOp::Mul || I->Bop == BinOp::Div ||
                      I->Bop == BinOp::Eq || I->Bop == BinOp::Ne))
        break; // complex supports ring ops and (in)equality only
      if (K == 0)
        K = 1; // logical operands behave as integers
      if (!isComparison(I->Bop) && K == 1 &&
          (I->Bop == BinOp::Div || I->Bop == BinOp::Pow))
        K = 2; // int / and ^ produce doubles: compute in Real
      I->Ops[0] = coerceTo(C, I, I->op(0), K);
      I->Ops[1] = coerceTo(C, I, I->op(1), K);
      I->Op = IrOp::BinTyped;
      I->Knd = rankTag(K);
      Changed = true;
      break;
    }

    case IrOp::Extract2Gen: {
      // By the container's element kind: the runtime's read and store
      // kernels (runtime/value.h) take a vector of that kind or its
      // scalar, so `runif(n) * 500`'s `Real|RealVec` is a double
      // container like a `RealVec`.
      Tag K = I->op(0)->Type.numericKind();
      int RI = scalarRank(I->op(1)->Type);
      if (K == Tag::Null || (RI != 1 && RI != 2))
        break;
      I->Ops[1] = coerceTo(C, I, I->op(1), 1);
      I->Op = IrOp::Extract2Typed;
      I->Knd = K;
      Changed = true;
      break;
    }

    case IrOp::SetElem2Gen: {
      // No typed logical store: a logical container stays generic.
      Tag K = I->op(0)->Type.numericKind();
      int RV = scalarRank(I->op(2)->Type);
      int RI = scalarRank(I->op(1)->Type);
      if (K == Tag::Null || K == Tag::Lgl || RV < 0 || (RI != 1 && RI != 2))
        break;
      int VecRank = scalarRank(RType::of(K));
      if (RV > VecRank)
        break; // would promote the container: keep generic
      I->Ops[1] = coerceTo(C, I, I->op(1), 1);
      I->Ops[2] = coerceTo(C, I, I->op(2), VecRank);
      I->Op = IrOp::SetElem2Typed;
      I->Knd = K;
      Changed = true;
      break;
    }

    case IrOp::AsCond: {
      if (I->op(0)->Type.isExactly(Tag::Lgl)) {
        C.replaceAllUses(I, I->op(0));
        Changed = true;
      }
      break;
    }

    case IrOp::CoerceNum: {
      if (scalarRank(I->op(0)->Type) >= 0 &&
          I->op(0)->Type.isExactly(I->Knd)) {
        C.replaceAllUses(I, I->op(0));
        Changed = true;
      }
      break;
    }

    case IrOp::CastType: {
      // A cast whose operand is already statically within the guarded
      // type is a no-op.
      if (!I->op(0)->Type.isNone() &&
          I->op(0)->Type.subtypeOf(RType::of(I->TagArg)) &&
          I->op(0) != I) {
        C.replaceAllUses(I, I->op(0));
        Changed = true;
      }
      break;
    }

    default:
      break;
    }
  }
  return Changed;
}
