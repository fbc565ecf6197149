//===-- lowcode/exec.cpp - LowCode execution engine -----------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lowcode/exec.h"
#include "bc/interp.h"
#include "lowcode/step.h"
#include "obs/trace.h"
#include "runtime/arith.h"
#include "runtime/builtins.h"
#include "support/stats.h"

using namespace rjit;

// Threaded (computed-goto) dispatch on GNU-compatible compilers; plain
// switch dispatch otherwise. Define RJIT_NO_CGOTO to force the fallback.
#if defined(__GNUC__) && !defined(RJIT_NO_CGOTO)
#define RJIT_CGOTO 1
#else
#define RJIT_CGOTO 0
#endif

#if RJIT_CGOTO
#define VMCASE(op) L_##op:
#define VMSTEP()                                                             \
  do {                                                                       \
    IP = &F.Code[Pc];                                                        \
    goto *Table[static_cast<uint8_t>(IP->Op)];                               \
  } while (0)
#else
#define VMCASE(op) case LowOp::op:
#define VMSTEP() break
#endif

namespace {

Value coerceValue(const Value &V, Tag Target) {
  switch (Target) {
  case Tag::Lgl:
    return Value::lgl(V.asCondition());
  case Tag::Int:
    return Value::integer(V.toInt());
  case Tag::Real:
    return Value::real(V.toReal());
  case Tag::Cplx:
    return Value::cplx(V.toCplx());
  default:
    rerror("invalid coercion target");
  }
}

/// COW + grow-on-assign element store into a typed vector container.
template <typename ObjT, typename ElemT>
Value setTypedElem(Value Obj, Tag VecTag, int64_t Idx, ElemT Elem) {
  if (Idx < 1)
    rerror("invalid subscript in assignment");
  if (!Obj.unshared()) {
    ++stats().CowCopies;
    Obj = Value::adopt(VecTag,
                       new ObjT(static_cast<ObjT *>(Obj.object())->D));
  }
  ObjT *O = static_cast<ObjT *>(Obj.object());
  if (static_cast<size_t>(Idx) > O->D.size()) {
    O->D.resize(Idx, ElemT{});
    O->retrack();
  }
  O->D[Idx - 1] = Elem;
  return Obj;
}

//===--------------------------------------------------------------------===//
// One body per non-control-flow op, shared by the threaded dispatch loop
// and stepLowInstr (the native backend's per-op fallback), so the two
// drivers cannot drift apart. Bodies take raw slot pointers: the
// interpreter passes its vectors' data, the native frame its arrays.
// Control-flow ops (jumps, branches, GuardCond, EpochCheck, RetLow) have
// no body; each driver runs them itself.
//===--------------------------------------------------------------------===//

template <LowOp Op>
void body(const LowFunction &, const LowInstr &, Value *, double *,
          int32_t *, Env *, Env *, Env *) {
  assert(false && "control-flow op reached the fallback stepper");
  rerror("internal: control-flow op in stepLowInstr");
}

#define LOW_BODY(Op)                                                         \
  template <>                                                                \
  inline void body<LowOp::Op>(const LowFunction &F, const LowInstr &I,       \
                              Value *S, double *D, int32_t *Iv, Env *CurEnv, \
                              Env *ParentEnv, Env *ReadEnv)

LOW_BODY(LoadConst) {
  const Value &V = F.Consts[I.Imm];
  switch (static_cast<SlotClass>(I.B)) {
  case SlotClass::Boxed:
    S[I.Dst] = V;
    break;
  case SlotClass::RawReal:
    D[I.Dst] = V.asRealUnchecked();
    break;
  case SlotClass::RawInt:
    Iv[I.Dst] = V.asIntUnchecked();
    break;
  }
}

LOW_BODY(Move) {
  switch (static_cast<SlotClass>(I.B)) {
  case SlotClass::Boxed:
    if (I.C)
      S[I.Dst] = std::move(S[I.A]); // source slot is dead
    else
      S[I.Dst] = S[I.A];
    break;
  case SlotClass::RawReal:
    D[I.Dst] = D[I.A];
    break;
  case SlotClass::RawInt:
    Iv[I.Dst] = Iv[I.A];
    break;
  }
}

LOW_BODY(Box) {
  S[I.Dst] = static_cast<SlotClass>(I.C) == SlotClass::RawReal
                 ? Value::real(D[I.A])
                 : Value::integer(Iv[I.A]);
}

LOW_BODY(Unbox) {
  if (static_cast<SlotClass>(I.C) == SlotClass::RawReal)
    D[I.Dst] = S[I.A].asRealUnchecked();
  else
    Iv[I.Dst] = S[I.A].asIntUnchecked();
}

LOW_BODY(Coerce) {
  SlotClass SrcK = coerceSrcClass(I);
  SlotClass DstK = static_cast<SlotClass>(I.B);
  if (DstK == SlotClass::RawReal) {
    D[I.Dst] = SrcK == SlotClass::RawReal  ? D[I.A]
               : SrcK == SlotClass::RawInt ? static_cast<double>(Iv[I.A])
                                           : S[I.A].toReal();
  } else if (DstK == SlotClass::RawInt) {
    Iv[I.Dst] = SrcK == SlotClass::RawInt ? Iv[I.A]
                : SrcK == SlotClass::RawReal
                    ? static_cast<int32_t>(D[I.A])
                    : S[I.A].toInt();
  } else {
    Value Src = SrcK == SlotClass::RawReal  ? Value::real(D[I.A])
                : SrcK == SlotClass::RawInt ? Value::integer(Iv[I.A])
                                            : S[I.A];
    S[I.Dst] = coerceValue(Src, coerceTarget(I));
  }
}

LOW_BODY(LdEnv) {
  if (!ReadEnv)
    rerror("unbound variable (no environment)");
  S[I.Dst] = ReadEnv->get(static_cast<Symbol>(I.Imm));
}

LOW_BODY(StEnv) {
  assert(CurEnv && "store requires a real environment");
  CurEnv->set(static_cast<Symbol>(I.Imm), S[I.A]);
}

LOW_BODY(StEnvSuper) {
  if (CurEnv)
    CurEnv->setSuper(static_cast<Symbol>(I.Imm), S[I.A]);
  else if (ParentEnv)
    ParentEnv->setNearest(static_cast<Symbol>(I.Imm), S[I.A]);
  else
    rerror("superassignment without an environment");
}

LOW_BODY(MkClosLow) {
  assert(CurEnv && "closures capture a real environment");
  S[I.Dst] = Value::closure(F.Origin->InnerFns[I.Imm], CurEnv);
}

LOW_BODY(CallValLow) {
  std::vector<Value> CallArgs(I.Imm);
  for (int32_t K = 0; K < I.Imm; ++K)
    CallArgs[K] = std::move(S[I.B + K]);
  S[I.Dst] = callValue(S[I.A], std::move(CallArgs));
}

LOW_BODY(CallBiLow) {
  S[I.Dst] = callBuiltin(static_cast<BuiltinId>(I.C), &S[I.B],
                         static_cast<size_t>(I.Imm));
}

LOW_BODY(ArithTyped) {
  BinOp Op = arithOp(I);
  int Rank = arithRank(I);
  if (Rank == 2) {
    if (isComparison(Op))
      S[I.Dst] = Value::lgl(scalarCompare(Op, D[I.A], D[I.B]));
    else
      D[I.Dst] = realArith(Op, D[I.A], D[I.B]);
  } else if (Rank == 1) {
    if (isComparison(Op))
      S[I.Dst] = Value::lgl(scalarCompare(Op, Iv[I.A], Iv[I.B]));
    else
      Iv[I.Dst] = intArith(Op, Iv[I.A], Iv[I.B]);
  } else {
    Complex X = S[I.A].asCplxUnchecked(), Y = S[I.B].asCplxUnchecked();
    S[I.Dst] = isComparison(Op) ? Value::lgl(cplxCompare(Op, X, Y))
                                : Value::cplx(cplxArith(Op, X, Y));
  }
}

LOW_BODY(BinGenLow) {
  S[I.Dst] = genericBinary(static_cast<BinOp>(I.C), S[I.A], S[I.B]);
}

LOW_BODY(NegLow) { S[I.Dst] = genericNeg(S[I.A]); }

LOW_BODY(NotLow) { S[I.Dst] = genericNot(S[I.A]); }

LOW_BODY(AsCondLow) { S[I.Dst] = Value::lgl(S[I.A].asCondition()); }

LOW_BODY(Extract2Low) { S[I.Dst] = extract2(S[I.A], S[I.B].toInt()); }

LOW_BODY(Extract1Low) { S[I.Dst] = extract1(S[I.A], S[I.B]); }

LOW_BODY(Extract2Typed) {
  // A vector-typed operand may hold the corresponding *scalar* at run
  // time (RType's widened semantics: R scalars are length-one vectors);
  // contexts dispatch scalar calls to vector versions, so the typed path
  // must honor that.
  const Value &Obj = S[I.A];
  int64_t Idx = Iv[I.B];
  switch (elemKind(I)) {
  case Tag::Real: {
    if (Obj.tag() == Tag::Real) {
      if (Idx != 1)
        rerror("subscript out of bounds: " + std::to_string(Idx));
      D[I.Dst] = Obj.asRealUnchecked();
      break;
    }
    const auto &Dd = Obj.realVecObj()->D;
    if (Idx < 1 || static_cast<size_t>(Idx) > Dd.size())
      rerror("subscript out of bounds: " + std::to_string(Idx));
    D[I.Dst] = Dd[Idx - 1];
    break;
  }
  case Tag::Int: {
    if (Obj.tag() == Tag::Int) {
      if (Idx != 1)
        rerror("subscript out of bounds: " + std::to_string(Idx));
      Iv[I.Dst] = Obj.asIntUnchecked();
      break;
    }
    const auto &Dd = Obj.intVecObj()->D;
    if (Idx < 1 || static_cast<size_t>(Idx) > Dd.size())
      rerror("subscript out of bounds: " + std::to_string(Idx));
    Iv[I.Dst] = Dd[Idx - 1];
    break;
  }
  case Tag::Cplx: {
    if (Obj.tag() == Tag::Cplx) {
      if (Idx != 1)
        rerror("subscript out of bounds: " + std::to_string(Idx));
      S[I.Dst] = Obj;
      break;
    }
    const auto &Dd = Obj.cplxVecObj()->D;
    if (Idx < 1 || static_cast<size_t>(Idx) > Dd.size())
      rerror("subscript out of bounds: " + std::to_string(Idx));
    S[I.Dst] = Value::cplx(Dd[Idx - 1]);
    break;
  }
  default: {
    if (Obj.tag() == Tag::Lgl) {
      if (Idx != 1)
        rerror("subscript out of bounds: " + std::to_string(Idx));
      S[I.Dst] = Obj;
      break;
    }
    const auto &Dd = Obj.lglVecObj()->D;
    if (Idx < 1 || static_cast<size_t>(Idx) > Dd.size())
      rerror("subscript out of bounds: " + std::to_string(Idx));
    S[I.Dst] = Value::lgl(Dd[Idx - 1] != 0);
    break;
  }
  }
}

LOW_BODY(SetElem2Low) {
  Value Obj = stealsContainer(I) ? std::move(S[I.A]) : S[I.A];
  S[I.Dst] = assign2(std::move(Obj), S[I.B].toInt(), S[I.Imm]);
}

LOW_BODY(SetElem2Typed) {
  Value Obj = stealsContainer(I) ? std::move(S[I.A]) : S[I.A];
  int64_t Idx = Iv[I.B];
  // Widened semantics (see Extract2Typed): promote a scalar operand to
  // its length-one vector before the raw element store.
  switch (Obj.tag()) {
  case Tag::Real:
    Obj = Value::realVec({Obj.asRealUnchecked()});
    break;
  case Tag::Int:
    Obj = Value::intVec({Obj.asIntUnchecked()});
    break;
  case Tag::Cplx:
    Obj = Value::cplxVec({Obj.asCplxUnchecked()});
    break;
  case Tag::Lgl:
    Obj = Value::lglVec({static_cast<int8_t>(Obj.asLglUnchecked())});
    break;
  default:
    break;
  }
  switch (elemKind(I)) {
  case Tag::Real:
    S[I.Dst] = setTypedElem<RealVecObj, double>(std::move(Obj),
                                                Tag::RealVec, Idx, D[I.Imm]);
    break;
  case Tag::Int:
    S[I.Dst] = setTypedElem<IntVecObj, int32_t>(std::move(Obj), Tag::IntVec,
                                                Idx, Iv[I.Imm]);
    break;
  case Tag::Cplx:
    S[I.Dst] = setTypedElem<CplxVecObj, Complex>(
        std::move(Obj), Tag::CplxVec, Idx, S[I.Imm].asCplxUnchecked());
    break;
  default:
    S[I.Dst] = setTypedElem<LglVecObj, int8_t>(
        std::move(Obj), Tag::LglVec, Idx,
        static_cast<int8_t>(S[I.Imm].asLglUnchecked() ? 1 : 0));
    break;
  }
}

LOW_BODY(SetIdx2EnvLow) {
  assert(CurEnv && "env-indexed store requires an environment");
  Value &Slot = CurEnv->updateSlot(static_cast<Symbol>(I.Imm2));
  Slot = assign2(std::move(Slot), S[I.A].toInt(), S[I.B]);
  S[I.Dst] = S[I.B];
}

LOW_BODY(LengthLow) { Iv[I.Dst] = static_cast<int32_t>(S[I.A].length()); }

#undef LOW_BODY

} // namespace

void rjit::spillLowArgs(const LowFunction &F, std::vector<Value> &&Args,
                        Value *S, double *D, int32_t *Iv) {
  assert(Args.size() == F.NumParams && "argument count mismatch");
  // Incoming arguments land in their class home; raw homes are unboxed
  // here (their types were guaranteed by the caller/context).
  for (size_t K = 0; K < Args.size(); ++K) {
    switch (F.ParamClasses[K]) {
    case SlotClass::Boxed:
      S[F.ParamSlots[K]] = std::move(Args[K]);
      break;
    case SlotClass::RawReal:
      D[F.ParamSlots[K]] = Args[K].asRealUnchecked();
      break;
    case SlotClass::RawInt:
      Iv[F.ParamSlots[K]] = Args[K].asIntUnchecked();
      break;
    }
  }
}

Value rjit::runLow(const LowFunction &F, std::vector<Value> &&Args,
                   Env *CurEnv, Env *ParentEnv) {
  std::vector<Value> SlotsS(F.NumSlots);
  std::vector<double> SlotsD(F.NumSlotsD);
  std::vector<int32_t> SlotsI(F.NumSlotsI);
  Value *S = SlotsS.data();
  double *D = SlotsD.data();
  int32_t *Iv = SlotsI.data();
  spillLowArgs(F, std::move(Args), S, D, Iv);

  ExecContext &Cx = currentContext();
  Env *ReadEnv = CurEnv ? CurEnv : ParentEnv;
  int32_t Pc = 0;

#if RJIT_CGOTO
  static const void *Table[] = {
#define LOW_OP(Name, ...) &&L_##Name,
#include "lowcode/ops.def"
  };
  static_assert(sizeof(Table) / sizeof(Table[0]) == NumLowOps,
                "one handler per LowOp");
  const LowInstr *IP = &F.Code[0];
#define I (*IP)
  goto *Table[static_cast<uint8_t>(IP->Op)];
#else
  const int32_t N = static_cast<int32_t>(F.Code.size());
  while (Pc < N) {
#endif
#if RJIT_CGOTO
  {
#else
    const LowInstr &I = F.Code[Pc];
    switch (I.Op) {
#endif
#define VMOP(op)                                                             \
  VMCASE(op) {                                                               \
    body<LowOp::op>(F, I, S, D, Iv, CurEnv, ParentEnv, ReadEnv);             \
    ++Pc;                                                                    \
    VMSTEP();                                                                \
  }
    VMOP(LoadConst)
    VMOP(Move)
    VMOP(Box)
    VMOP(Unbox)
    VMOP(Coerce)
    VMOP(LdEnv)
    VMOP(StEnv)
    VMOP(StEnvSuper)
    VMOP(MkClosLow)
    VMOP(CallValLow)
    VMOP(CallBiLow)
    VMOP(ArithTyped)
    VMOP(BinGenLow)
    VMOP(NegLow)
    VMOP(NotLow)
    VMOP(AsCondLow)
    VMOP(Extract2Low)
    VMOP(Extract1Low)
    VMOP(Extract2Typed)
    VMOP(SetElem2Low)
    VMOP(SetElem2Typed)
    VMOP(SetIdx2EnvLow)
    VMOP(LengthLow)
#undef VMOP
    VMCASE(GuardCond) {
      bool Holds = lowGuardHolds(I, F.Deopts[I.Imm], S);
      Cx.Stats.AssumeChecks.bump();
      bool Injected = Holds && Cx.Low.InvalidationCountdown &&
                      --Cx.Low.InvalidationCountdown == 0;
      if (!Holds || Injected)
        return failGuard(Cx, obs::TraceEv::GuardFail, F, Pc, {S, D, Iv},
                         CurEnv, ParentEnv, Injected);
      ++Pc;
      VMSTEP();
    }
    VMCASE(EpochCheck) {
      if (Cx.Watch.Epoch.load(std::memory_order_relaxed) != F.BuiltinEpoch)
        return failGuard(Cx, obs::TraceEv::GuardFail, F, Pc, {S, D, Iv},
                         CurEnv, ParentEnv, /*Injected=*/false);
      ++Pc;
      VMSTEP();
    }
    VMCASE(JumpLow) {
      Pc = I.Imm;
      VMSTEP();
    }
    VMCASE(BranchFalseLow) {
      Pc = S[I.A].asCondition() ? Pc + 1 : I.Imm;
      VMSTEP();
    }
    VMCASE(BranchTrueLow) {
      Pc = S[I.A].asCondition() ? I.Imm : Pc + 1;
      VMSTEP();
    }
    VMCASE(CmpBranch) {
      Pc = stepCmpBranchTaken(I, S, D, Iv) ? I.Imm : Pc + 1;
      VMSTEP();
    }
    VMCASE(RetLow)
      return std::move(S[I.A]);
#if RJIT_CGOTO
  }
#undef I
#else
    }
  }
#endif
  assert(false && "fell off the end of LowCode");
  rerror("internal: malformed LowCode");
}

//===----------------------------------------------------------------------===//
// Single-instruction execution (lowcode/step.h): the native backend's
// per-op fallback path. It runs the same op bodies as the dispatch loop
// above — a second *driver*, not a second implementation.
//===----------------------------------------------------------------------===//

bool rjit::lowGuardHolds(const LowInstr &I, const DeoptMeta &M,
                         const Value *S) {
  switch (I.C) {
  case 0:
    return S[I.A].tag() == M.ExpectedTag;
  case 1:
    return S[I.A].tag() == Tag::Clos &&
           S[I.A].closObj()->Fn == M.ExpectedFun;
  default:
    return S[I.A].tag() == Tag::Lgl && S[I.A].asLglUnchecked();
  }
}

Value rjit::failGuard(ExecContext &C, obs::TraceEv Kind, const LowFunction &F,
                      int32_t Pc, const SlotView &Slots, Env *CurEnv,
                      Env *ParentEnv, bool Injected) {
  LowHooks &H = C.Low;
  if (Injected) {
    H.rearmInvalidation();
    ++C.Stats.InjectedFailures;
    if (obs::traceOn())
      obs::traceEvent(obs::TraceEv::Invalidate, 0,
                      static_cast<uint64_t>(Pc));
  }
  ++C.Stats.AssumeFailures;
  if (obs::traceOn())
    obs::traceEvent(Kind, 0, static_cast<uint64_t>(Pc), Injected);
  if (!H.Deopt)
    rerror("speculation failed and no deoptimization handler is "
           "installed");
  // The paper's Listing 3: the deopt primitive is (tail-)called and its
  // result is the result of this activation.
  return H.Deopt(F, Slots, F.Code[Pc].Imm, CurEnv, ParentEnv, Injected);
}

bool rjit::stepCmpBranchTaken(const LowInstr &I, const Value *S,
                              const double *D, const int32_t *Iv) {
  BinOp Op = arithOp(I);
  int Rank = arithRank(I);
  bool Cond;
  if (Rank == 2)
    Cond = scalarCompare(Op, D[I.A], D[I.B]);
  else if (Rank == 1)
    Cond = scalarCompare(Op, Iv[I.A], Iv[I.B]);
  else
    Cond = cplxCompare(Op, S[I.A].asCplxUnchecked(), S[I.B].asCplxUnchecked());
  return Cond == cmpBranchSense(I);
}

void rjit::stepLowInstr(const LowFunction &F, const LowInstr &I, Value *S,
                        double *D, int32_t *Iv, Env *CurEnv, Env *ParentEnv,
                        Env *ReadEnv) {
  switch (I.Op) {
#define LOW_OP(Name, ...)                                                    \
  case LowOp::Name:                                                          \
    return body<LowOp::Name>(F, I, S, D, Iv, CurEnv, ParentEnv, ReadEnv);
#include "lowcode/ops.def"
  }
}
