//===-- opt/inference.cpp - Optimistic type inference -------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/inference.h"
#include "runtime/arith.h"

using namespace rjit;

namespace {

/// Element type of extracting one element from a container of type \p T.
RType elementType(RType T) {
  if (T.isNone())
    return RType::none();
  RType R = RType::none();
  for (unsigned B = 0; B < NumTags; ++B) {
    Tag Tg = static_cast<Tag>(B);
    if (!T.contains(Tg))
      continue;
    switch (Tg) {
    case Tag::LglVec:
    case Tag::IntVec:
    case Tag::RealVec:
    case Tag::CplxVec:
      R = R.join(RType::of(scalarTagOf(Tg)));
      break;
    case Tag::Lgl:
    case Tag::Int:
    case Tag::Real:
    case Tag::Cplx:
    case Tag::Str:
      R = R.join(RType::of(Tg));
      break;
    case Tag::StrVec:
      R = R.join(RType::of(Tag::Str));
      break;
    default:
      return RType::any(); // lists and friends: anything
    }
  }
  return R.isNone() ? RType::any() : R;
}

/// Scalar numeric kind rank: Lgl < Int < Real < Cplx; -1 if not purely one
/// scalar numeric kind.
int scalarKindRank(RType T) {
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

Tag rankToTag(int R) {
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

/// Result of a generic binary op over numeric scalar-kind operands.
RType binResult(BinOp Op, RType A, RType B) {
  if (A.isNone() || B.isNone())
    return RType::none(); // not yet computed (optimistic bottom)
  if (Op == BinOp::And || Op == BinOp::Or)
    return RType::of(Tag::Lgl);
  if (Op == BinOp::Colon) {
    if (A.subtypeOf(RType::of(Tag::Lgl).join(RType::of(Tag::Int))))
      return RType::of(Tag::IntVec);
    return RType::of(Tag::IntVec).join(RType::of(Tag::RealVec));
  }
  // Pure scalar operands (possibly a mix of kinds) give scalar results.
  auto ScalarMaskOnly = [](RType T) {
    const uint16_t ScalarMask =
        RType::of(Tag::Lgl).rawMask() | RType::of(Tag::Int).rawMask() |
        RType::of(Tag::Real).rawMask() | RType::of(Tag::Cplx).rawMask();
    return !T.isNone() && (T.rawMask() & ~ScalarMask) == 0;
  };
  bool Scalars = ScalarMaskOnly(A) && ScalarMaskOnly(B);
  if (isComparison(Op))
    return Scalars ? RType::of(Tag::Lgl)
                   : RType::of(Tag::Lgl).join(RType::of(Tag::LglVec));
  if (!A.numericOnly() || !B.numericOnly())
    return RType::any();
  if (Scalars) {
    // Result kinds: the pairwise maxima of the possible operand kinds.
    RType R = RType::none();
    for (int KA = 0; KA <= 3; ++KA) {
      if (!A.contains(rankToTag(KA)))
        continue;
      for (int KB = 0; KB <= 3; ++KB) {
        if (!B.contains(rankToTag(KB)))
          continue;
        int K = std::max(KA, KB);
        if (K == 3) {
          R = R.join(RType::of(Tag::Cplx));
        } else if (Op == BinOp::Div || Op == BinOp::Pow) {
          R = R.join(RType::of(Tag::Real));
        } else if (K <= 1) {
          R = R.join(RType::of(Tag::Int)); // logicals act as integers
        } else {
          R = R.join(RType::of(rankToTag(K)));
        }
      }
    }
    return R;
  }
  // Vector-ish numeric: join of scalar and vector results of the top kind.
  RType J = A.join(B);
  RType R = RType::none();
  if (J.contains(Tag::Cplx) || J.contains(Tag::CplxVec))
    R = RType::numeric(Tag::Cplx);
  else if (Op == BinOp::Div || Op == BinOp::Pow ||
           J.contains(Tag::Real) || J.contains(Tag::RealVec))
    R = RType::numeric(Tag::Real);
  else
    R = RType::numeric(Tag::Int);
  return R;
}

/// Result of a functional container update (SetElem2).
RType setElemResult(RType Obj, RType Val) {
  if (Obj.isNone() || Val.isNone())
    return RType::none();
  // Conservative: the container may be promoted up to the value's kind,
  // or become a list when the value is not scalar-numeric.
  RType R = RType::none();
  bool ValNumScalar = scalarKindRank(Val) >= 0;
  int ValRank = scalarKindRank(Val);
  auto VecRank = [](Tag T) -> int {
    switch (T) {
    case Tag::LglVec:
      return 0;
    case Tag::IntVec:
      return 1;
    case Tag::RealVec:
      return 2;
    case Tag::CplxVec:
      return 3;
    default:
      return -1;
    }
  };
  for (unsigned B = 0; B < NumTags; ++B) {
    Tag Tg = static_cast<Tag>(B);
    if (!Obj.contains(Tg))
      continue;
    if (Tg == Tag::Null) {
      if (ValNumScalar)
        R = R.join(RType::of(vectorTagOf(Val.uniqueTag())));
      else
        R = R.join(RType::of(Tag::List));
      continue;
    }
    int VR = VecRank(Tg);
    int SR = isScalarTag(Tg) ? VecRank(vectorTagOf(Tg)) : -1;
    int Base = VR >= 0 ? VR : SR;
    if (Base >= 0 && ValNumScalar) {
      int K = std::max(Base, ValRank);
      R = R.join(RType::of(vectorTagOf(rankToTag(K))));
      continue;
    }
    if (Tg == Tag::List || Tg == Tag::StrVec || Tg == Tag::Str) {
      R = R.join(RType::of(Tag::List)).join(RType::of(Tag::StrVec));
      continue;
    }
    return RType::any();
  }
  return R.isNone() ? RType::any() : R;
}

} // namespace

RType rjit::builtinResultType(BuiltinId Id, const std::vector<RType> &Args) {
  // Optimistic bottom: argument types not yet computed.
  for (RType A : Args)
    if (A.isNone())
      return RType::none();
  auto Arg0 = [&]() { return Args.empty() ? RType::any() : Args[0]; };
  switch (Id) {
  case BuiltinId::Length:
  case BuiltinId::Nchar:
  case BuiltinId::AsInteger:
    return RType::of(Tag::Int);
  case BuiltinId::SeqLen:
    return RType::of(Tag::IntVec);
  case BuiltinId::NumericCtor:
    return RType::of(Tag::RealVec);
  case BuiltinId::IntegerCtor:
    return RType::of(Tag::IntVec);
  case BuiltinId::ComplexCtor:
    return RType::of(Tag::CplxVec);
  case BuiltinId::LogicalCtor:
    return RType::of(Tag::LglVec);
  case BuiltinId::CharacterCtor:
    return RType::of(Tag::StrVec);
  case BuiltinId::ListCtor:
  case BuiltinId::VectorCtor:
    return RType::of(Tag::List).join(RType::of(Tag::IntVec))
        .join(RType::of(Tag::RealVec))
        .join(RType::of(Tag::CplxVec))
        .join(RType::of(Tag::LglVec))
        .join(RType::of(Tag::StrVec));
  case BuiltinId::Sqrt:
  case BuiltinId::Exp:
  case BuiltinId::Log:
  case BuiltinId::Sin:
  case BuiltinId::Cos:
  case BuiltinId::Tan:
  case BuiltinId::Floor:
  case BuiltinId::Ceiling:
  case BuiltinId::Round: {
    RType A = Arg0();
    if (scalarKindRank(A) >= 0 && !A.contains(Tag::Cplx))
      return RType::of(Tag::Real);
    return RType::numeric(Tag::Real);
  }
  case BuiltinId::Atan2:
  case BuiltinId::Re:
  case BuiltinId::Im:
  case BuiltinId::ModC:
  case BuiltinId::Mean:
  case BuiltinId::AsNumeric:
    return Args.size() == 1 && scalarKindRank(Arg0()) >= 0
               ? RType::of(Tag::Real)
               : RType::numeric(Tag::Real);
  case BuiltinId::Abs: {
    RType A = Arg0();
    if (A.isExactly(Tag::Int))
      return RType::of(Tag::Int);
    if (A.isExactly(Tag::Real) || A.isExactly(Tag::Cplx))
      return RType::of(Tag::Real);
    return RType::numeric(Tag::Real).join(RType::numeric(Tag::Int));
  }
  case BuiltinId::Min:
  case BuiltinId::Max:
  case BuiltinId::Sum: {
    bool AnyReal = false, AnyCplx = false, AllKnown = !Args.empty();
    for (RType A : Args) {
      if (A.contains(Tag::Real) || A.contains(Tag::RealVec))
        AnyReal = true;
      if (A.contains(Tag::Cplx) || A.contains(Tag::CplxVec))
        AnyCplx = true;
      if (!A.numericOnly())
        AllKnown = false;
    }
    if (!AllKnown)
      return RType::of(Tag::Int).join(RType::of(Tag::Real))
          .join(RType::of(Tag::Cplx));
    if (AnyCplx)
      return RType::of(Tag::Cplx);
    if (AnyReal)
      return RType::of(Tag::Real);
    return RType::of(Tag::Int);
  }
  case BuiltinId::Concat: {
    // c(...) of numeric arguments, each of one kind, is a vector of the
    // highest kind; NULL, strings, lists and arguments whose kind is not
    // known give NULL, a string vector or a list.
    int Top = -1;
    for (RType A : Args) {
      Tag K = A.numericKind();
      if (K == Tag::Null)
        return RType::any();
      Top = std::max(Top, scalarKindRank(RType::of(K)));
    }
    return Top < 0 ? RType::any() : RType::numeric(rankToTag(Top));
  }
  case BuiltinId::Conj:
  case BuiltinId::AsComplex:
    return RType::of(Tag::Cplx).join(RType::of(Tag::CplxVec));
  case BuiltinId::AsLogical:
  case BuiltinId::IsNull:
  case BuiltinId::Identical:
    return RType::of(Tag::Lgl);
  case BuiltinId::Substr:
  case BuiltinId::Paste0:
    return RType::of(Tag::Str);
  case BuiltinId::Runif:
    return RType::of(Tag::Real).join(RType::of(Tag::RealVec));
  case BuiltinId::BitwAnd:
  case BuiltinId::BitwOr:
  case BuiltinId::BitwXor:
  case BuiltinId::BitwShiftL:
  case BuiltinId::BitwShiftR:
    return RType::of(Tag::Int);
  default:
    return RType::any();
  }
}

bool rjit::inferTypes(IrCode &C) {
  // Snapshot old types to report change; reset derived instrs to bottom.
  std::vector<RType> Old(C.NextInstrId, RType::none());
  C.eachInstr([&](Instr *I) {
    Old[I->Id] = I->Type;
    switch (I->Op) {
    case IrOp::Phi:
    case IrOp::BinGen:
    case IrOp::BinTyped:
    case IrOp::NegGen:
    case IrOp::Extract2Gen:
    case IrOp::Extract1Gen:
    case IrOp::Extract2Typed:
    case IrOp::SetElem2Gen:
    case IrOp::SetElem2Typed:
    case IrOp::CastType:
    case IrOp::CoerceNum:
    case IrOp::CallBuiltinKnown:
    case IrOp::SetIdx2Env:
      I->Type = RType::none();
      break;
    default:
      break; // sources keep their type
    }
  });

  auto Transfer = [&](Instr *I) -> RType {
    auto OpT = [&](size_t K) { return I->op(K)->Type; };
    switch (I->Op) {
    case IrOp::Phi: {
      RType T = RType::none();
      for (Instr *Op : I->Ops)
        T = T.join(Op->Type);
      return T;
    }
    case IrOp::BinGen:
      // `1:n` in source code spells the lower bound as a double literal;
      // colonSeq still produces an integer vector for integral bounds, and
      // raises for a sequence that would leave the int32 range.
      if (I->Bop == BinOp::Colon && I->op(0)->Op == IrOp::Const) {
        const Value &V = I->op(0)->Cst;
        if (V.tag() == Tag::Int ||
            (V.tag() == Tag::Real &&
             V.asRealUnchecked() == realToInt(V.asRealUnchecked())))
          return RType::of(Tag::IntVec);
      }
      return binResult(I->Bop, OpT(0), OpT(1));
    case IrOp::BinTyped:
      if (isComparison(I->Bop))
        return RType::of(Tag::Lgl);
      if (I->Bop == BinOp::Div || I->Bop == BinOp::Pow)
        return RType::of(Tag::Real);
      return RType::of(I->Knd);
    case IrOp::NegGen:
      if (OpT(0).isNone())
        return RType::none();
      if (OpT(0).isExactly(Tag::Lgl))
        return RType::of(Tag::Int);
      if (scalarKindRank(OpT(0)) >= 0)
        return OpT(0);
      return OpT(0).numericOnly() ? OpT(0) : RType::any();
    case IrOp::Extract2Gen:
      return elementType(OpT(0));
    case IrOp::Extract1Gen: {
      // Scalar index: element; vector index: sub-vector. Join both.
      RType T = OpT(0);
      return elementType(T).join(T);
    }
    case IrOp::Extract2Typed:
      return RType::of(I->Knd);
    case IrOp::SetElem2Gen:
      return setElemResult(OpT(0), OpT(2));
    case IrOp::SetElem2Typed:
      return RType::of(vectorTagOf(I->Knd));
    case IrOp::CastType:
      // Casts are backed by guards: the static type is the guarded tag.
      return RType::of(I->TagArg);
    case IrOp::CoerceNum:
      return RType::of(I->Knd);
    case IrOp::CallBuiltinKnown: {
      std::vector<RType> Args;
      Args.reserve(I->Ops.size());
      for (Instr *Op : I->Ops)
        Args.push_back(Op->Type);
      return builtinResultType(I->Bid, Args);
    }
    case IrOp::SetIdx2Env:
      return OpT(1); // yields the assigned value
    default:
      return I->Type;
    }
  };

  // Fixpoint iteration (functions are small; simple rounds suffice).
  bool AnyRound = true;
  int Guard = 0;
  while (AnyRound && Guard++ < 64) {
    AnyRound = false;
    for (BB *B : C.rpo()) {
      for (auto &IP : B->Instrs) {
        Instr *I = IP.get();
        RType T = Transfer(I);
        RType N = I->Type.join(T);
        if (N != I->Type) {
          I->Type = N;
          AnyRound = true;
        }
      }
    }
  }

  // NOTE: there is deliberately no "numeric phi promotion" here. Coercing
  // mixed int/real phi inputs at the edges changes the *observable* kind
  // of a value (R distinguishes 1L from 1): a branch result
  // `if (p) 1.5 else 64L` must stay 64L on the else path, and a deopt
  // from a loop framestate must materialize the accumulator's original
  // 0L, not a promoted 0.0. The cross-tier differential fuzzer
  // (tests/property_test.cpp) catches both shapes; mixed-kind phis stay
  // boxed and their consumers stay generic.

  bool Changed = false;
  C.eachInstr([&](Instr *I) {
    if (Old[I->Id] != I->Type)
      Changed = true;
  });
  return Changed;
}
