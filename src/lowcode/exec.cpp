//===-- lowcode/exec.cpp - LowCode execution engine -----------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lowcode/exec.h"
#include "bc/interp.h"
#include "lowcode/step.h"
#include "obs/trace.h"
#include "runtime/builtins.h"
#include "support/stats.h"

#include <cmath>

using namespace rjit;

LowHooks &rjit::lowHooks() {
  // Thread-local for the same reason as interpHooks(): one Vm per executor
  // thread, each with its own deopt handler, invalidation RNG and depth.
  static thread_local LowHooks Hooks;
  return Hooks;
}

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

void superAssignFrom(Env *Start, Symbol Sym, Value V) {
  for (Env *E = Start; E; E = E->parent()) {
    if (Value *Slot = E->findLocal(Sym)) {
      *Slot = std::move(V);
      return;
    }
  }
  Env *Outer = Start;
  while (Outer && Outer->parent())
    Outer = Outer->parent();
  if (!Outer)
    rerror("superassignment without an environment");
  Outer->set(Sym, std::move(V));
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

/// Complex ring ops and (in)equality (boxed operands).
Value cplxArith(BinOp Op, Complex X, Complex Y) {
  switch (Op) {
  case BinOp::Add:
    return Value::cplx(X + Y);
  case BinOp::Sub:
    return Value::cplx(X - Y);
  case BinOp::Mul:
    return Value::cplx(X * Y);
  case BinOp::Div:
    return Value::cplx(X / Y);
  case BinOp::Eq:
    return Value::lgl(X == Y);
  case BinOp::Ne:
    return Value::lgl(!(X == Y));
  default:
    rerror("invalid complex operation");
  }
}

bool isCmpOp(BinOp Op) {
  switch (Op) {
  case BinOp::Eq:
  case BinOp::Ne:
  case BinOp::Lt:
  case BinOp::Le:
  case BinOp::Gt:
  case BinOp::Ge:
    return true;
  default:
    return false;
  }
}

template <typename T> bool cmpApply(BinOp Op, T X, T Y) {
  switch (Op) {
  case BinOp::Eq:
    return X == Y;
  case BinOp::Ne:
    return X != Y;
  case BinOp::Lt:
    return X < Y;
  case BinOp::Le:
    return X <= Y;
  case BinOp::Gt:
    return X > Y;
  default:
    return X >= Y;
  }
}

int32_t intArithApply(BinOp Op, int32_t X, int32_t Y) {
  // Unsigned wraparound, exactly as runtime/value.cpp's intArith: the
  // typed tier must wrap to the same values as the generic ops.
  auto Wrap = [](uint32_t R) { return static_cast<int32_t>(R); };
  switch (Op) {
  case BinOp::Add:
    return Wrap(static_cast<uint32_t>(X) + static_cast<uint32_t>(Y));
  case BinOp::Sub:
    return Wrap(static_cast<uint32_t>(X) - static_cast<uint32_t>(Y));
  case BinOp::Mul:
    return Wrap(static_cast<uint32_t>(X) * static_cast<uint32_t>(Y));
  case BinOp::Mod: {
    if (Y == 0)
      rerror("integer modulo by zero");
    if (Y == -1)
      return 0; // INT_MIN % -1 traps on x86; the result is always 0
    int32_t R = X % Y;
    if (R != 0 && ((R < 0) != (Y < 0)))
      R += Y;
    return R;
  }
  case BinOp::IDiv: {
    if (Y == 0)
      rerror("integer division by zero");
    if (Y == -1) // INT_MIN / -1 traps on x86; negate with wraparound
      return Wrap(0u - static_cast<uint32_t>(X));
    int32_t Q = X / Y;
    if ((X % Y != 0) && ((X < 0) != (Y < 0)))
      --Q;
    return Q;
  }
  default:
    assert(false && "not an int arithmetic op");
    return 0;
  }
}

double realArithApply(BinOp Op, double X, double Y) {
  switch (Op) {
  case BinOp::Add:
    return X + Y;
  case BinOp::Sub:
    return X - Y;
  case BinOp::Mul:
    return X * Y;
  case BinOp::Div:
    return X / Y;
  case BinOp::Pow:
    return std::pow(X, Y);
  case BinOp::Mod: {
    double R = std::fmod(X, Y);
    if (R != 0 && ((R < 0) != (Y < 0)))
      R += Y;
    return R;
  }
  case BinOp::IDiv:
    return std::floor(X / Y);
  default:
    assert(false && "not a real arithmetic op");
    return 0;
  }
}

//===--------------------------------------------------------------------===//
// Op bodies shared by the threaded dispatch loop and stepLowInstr (the
// native backend's per-op fallback): one implementation per nontrivial
// operation, so the two backends cannot drift apart. All take raw slot
// pointers — the interpreter passes its vectors' data, the native frame
// its arrays.
//===--------------------------------------------------------------------===//

inline void loadConstOp(const LowFunction &F, const LowInstr &I, Value *S,
                        double *D, int32_t *Iv) {
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

inline void moveOp(const LowInstr &I, Value *S, double *D, int32_t *Iv) {
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

inline void boxOp(const LowInstr &I, Value *S, const double *D,
                  const int32_t *Iv) {
  S[I.Dst] = static_cast<SlotClass>(I.C) == SlotClass::RawReal
                 ? Value::real(D[I.A])
                 : Value::integer(Iv[I.A]);
}

inline void unboxOp(const LowInstr &I, const Value *S, double *D,
                    int32_t *Iv) {
  if (static_cast<SlotClass>(I.C) == SlotClass::RawReal)
    D[I.Dst] = S[I.A].asRealUnchecked();
  else
    Iv[I.Dst] = S[I.A].asIntUnchecked();
}

inline void ldEnvOp(const LowInstr &I, Value *S, Env *ReadEnv) {
  if (!ReadEnv)
    rerror("unbound variable (no environment)");
  S[I.Dst] = ReadEnv->get(static_cast<Symbol>(I.Imm));
}

inline void stEnvSuperOp(const LowInstr &I, Value *S, Env *CurEnv,
                         Env *ParentEnv) {
  if (CurEnv)
    CurEnv->setSuper(static_cast<Symbol>(I.Imm), S[I.A]);
  else
    superAssignFrom(ParentEnv, static_cast<Symbol>(I.Imm), S[I.A]);
}

inline void callValOp(const LowInstr &I, Value *S) {
  std::vector<Value> CallArgs(I.Imm);
  for (int32_t K = 0; K < I.Imm; ++K)
    CallArgs[K] = std::move(S[I.B + K]);
  S[I.Dst] = callValue(S[I.A], std::move(CallArgs));
}

inline void setElem2Op(const LowInstr &I, Value *S) {
  bool Steal = I.C & 0x100;
  Value Obj = Steal ? std::move(S[I.A]) : S[I.A];
  S[I.Dst] = assign2(std::move(Obj), S[I.B].toInt(), S[I.Imm]);
}

inline void setIdxEnvOp(const LowInstr &I, Value *S, Env *CurEnv) {
  assert(CurEnv && "env-indexed store requires an environment");
  Symbol Sym = static_cast<Symbol>(I.Imm2);
  Value *Slot = CurEnv->findLocal(Sym);
  if (!Slot) {
    CurEnv->set(Sym, CurEnv->get(Sym));
    Slot = CurEnv->findLocal(Sym);
  }
  *Slot = assign2(std::move(*Slot), S[I.A].toInt(), S[I.B]);
  S[I.Dst] = S[I.B];
}

inline void coerceOp(const LowInstr &I, Value *S, double *D, int32_t *Iv) {
  Tag Target = static_cast<Tag>(I.C & 0xFF);
  SlotClass SrcK = static_cast<SlotClass>(I.C >> 8);
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
    S[I.Dst] = coerceValue(Src, Target);
  }
}

inline void arithTypedOp(const LowInstr &I, Value *S, double *D,
                         int32_t *Iv) {
  BinOp Op = static_cast<BinOp>(I.C >> 2);
  int Rank = I.C & 3;
  if (Rank == 2) {
    if (isCmpOp(Op))
      S[I.Dst] = Value::lgl(cmpApply(Op, D[I.A], D[I.B]));
    else
      D[I.Dst] = realArithApply(Op, D[I.A], D[I.B]);
  } else if (Rank == 1) {
    if (isCmpOp(Op))
      S[I.Dst] = Value::lgl(cmpApply(Op, Iv[I.A], Iv[I.B]));
    else
      Iv[I.Dst] = intArithApply(Op, Iv[I.A], Iv[I.B]);
  } else {
    S[I.Dst] =
        cplxArith(Op, S[I.A].asCplxUnchecked(), S[I.B].asCplxUnchecked());
  }
}

inline void extract2TypedOp(const LowInstr &I, Value *S, double *D,
                            int32_t *Iv) {
  // A vector-typed operand may hold the corresponding *scalar* at run
  // time (RType's widened semantics: R scalars are length-one vectors);
  // contexts dispatch scalar calls to vector versions, so the typed path
  // must honor that.
  const Value &Obj = S[I.A];
  int64_t Idx = Iv[I.B];
  switch (static_cast<Tag>(I.C)) {
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

inline void setElem2TypedOp(const LowInstr &I, Value *S, double *D,
                            int32_t *Iv) {
  bool Steal = I.C & 0x100;
  Tag Kind = static_cast<Tag>(I.C & 0xFF);
  Value Obj = Steal ? std::move(S[I.A]) : S[I.A];
  int64_t Idx = Iv[I.B];
  // Widened semantics (see extract2TypedOp): promote a scalar operand to
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
  switch (Kind) {
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
  std::vector<Value> S(F.NumSlots);
  std::vector<double> D(F.NumSlotsD);
  std::vector<int32_t> Iv(F.NumSlotsI);
  spillLowArgs(F, std::move(Args), S.data(), D.data(), Iv.data());

  LowHooks &H = lowHooks();
  Env *ReadEnv = CurEnv ? CurEnv : ParentEnv;
  int32_t Pc = 0;

#if RJIT_CGOTO
  static const void *Table[] = {
      &&L_LoadConst,     &&L_Move,          &&L_Box,
      &&L_Unbox,         &&L_Coerce,        &&L_LdEnv,
      &&L_StEnv,         &&L_StEnvSuper,    &&L_MkClosLow,
      &&L_CallValLow,    &&L_CallBiLow,     &&L_CallStaticLow,
      &&L_ArithTyped,    &&L_BinGenLow,     &&L_NegLow,
      &&L_NotLow,        &&L_AsCondLow,     &&L_Extract2Low,
      &&L_Extract1Low,   &&L_Extract2Typed, &&L_SetElem2Low,
      &&L_SetElem2Typed, &&L_SetIdx2EnvLow, &&L_SetIdx1EnvLow,
      &&L_LengthLow,     &&L_GuardCond,     &&L_JumpLow,
      &&L_BranchFalseLow, &&L_BranchTrueLow, &&L_CmpBranch,
      &&L_RetLow,
  };
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
    VMCASE(LoadConst) {
      loadConstOp(F, I, S.data(), D.data(), Iv.data());
      ++Pc;
      VMSTEP();
    }
    VMCASE(Move) {
      moveOp(I, S.data(), D.data(), Iv.data());
      ++Pc;
      VMSTEP();
    }
    VMCASE(Box) {
      boxOp(I, S.data(), D.data(), Iv.data());
      ++Pc;
      VMSTEP();
    }
    VMCASE(Unbox) {
      unboxOp(I, S.data(), D.data(), Iv.data());
      ++Pc;
      VMSTEP();
    }
    VMCASE(Coerce) {
      coerceOp(I, S.data(), D.data(), Iv.data());
      ++Pc;
      VMSTEP();
    }
    VMCASE(LdEnv) {
      ldEnvOp(I, S.data(), ReadEnv);
      ++Pc;
      VMSTEP();
    }
    VMCASE(StEnv) {
      assert(CurEnv && "store requires a real environment");
      CurEnv->set(static_cast<Symbol>(I.Imm), S[I.A]);
      ++Pc;
      VMSTEP();
    }
    VMCASE(StEnvSuper) {
      stEnvSuperOp(I, S.data(), CurEnv, ParentEnv);
      ++Pc;
      VMSTEP();
    }
    VMCASE(MkClosLow) {
      assert(CurEnv && "closures capture a real environment");
      S[I.Dst] = Value::closure(F.Origin->InnerFns[I.Imm], CurEnv);
      ++Pc;
      VMSTEP();
    }
    VMCASE(CallValLow)
    VMCASE(CallStaticLow) {
      callValOp(I, S.data());
      ++Pc;
      VMSTEP();
    }
    VMCASE(CallBiLow) {
      S[I.Dst] = callBuiltin(static_cast<BuiltinId>(I.C), &S[I.B],
                             static_cast<size_t>(I.Imm));
      ++Pc;
      VMSTEP();
    }
    VMCASE(ArithTyped) {
      arithTypedOp(I, S.data(), D.data(), Iv.data());
      ++Pc;
      VMSTEP();
    }
    VMCASE(BinGenLow) {
      S[I.Dst] = genericBinary(static_cast<BinOp>(I.C), S[I.A], S[I.B]);
      ++Pc;
      VMSTEP();
    }
    VMCASE(NegLow) {
      S[I.Dst] = genericNeg(S[I.A]);
      ++Pc;
      VMSTEP();
    }
    VMCASE(NotLow) {
      S[I.Dst] = genericNot(S[I.A]);
      ++Pc;
      VMSTEP();
    }
    VMCASE(AsCondLow) {
      S[I.Dst] = Value::lgl(S[I.A].asCondition());
      ++Pc;
      VMSTEP();
    }
    VMCASE(Extract2Low) {
      S[I.Dst] = extract2(S[I.A], S[I.B].toInt());
      ++Pc;
      VMSTEP();
    }
    VMCASE(Extract1Low) {
      S[I.Dst] = extract1(S[I.A], S[I.B]);
      ++Pc;
      VMSTEP();
    }
    VMCASE(Extract2Typed) {
      extract2TypedOp(I, S.data(), D.data(), Iv.data());
      ++Pc;
      VMSTEP();
    }
    VMCASE(SetElem2Low) {
      setElem2Op(I, S.data());
      ++Pc;
      VMSTEP();
    }
    VMCASE(SetElem2Typed) {
      setElem2TypedOp(I, S.data(), D.data(), Iv.data());
      ++Pc;
      VMSTEP();
    }
    VMCASE(SetIdx2EnvLow)
    VMCASE(SetIdx1EnvLow) {
      setIdxEnvOp(I, S.data(), CurEnv);
      ++Pc;
      VMSTEP();
    }
    VMCASE(LengthLow) {
      Iv[I.Dst] = static_cast<int32_t>(S[I.A].length());
      ++Pc;
      VMSTEP();
    }
    VMCASE(GuardCond) {
      const DeoptMeta &M = F.Deopts[I.Imm];
      bool Ok = lowGuardHolds(I, M, S.data());
      ++stats().AssumeChecks;
      bool Injected = false;
      // Builtin-stability guards (C == 2) model what Ř implements as a
      // watchpoint-invalidated global assumption, not a per-execution
      // check: Ř never executes them, so a random failure there has no
      // counterpart in the paper's experiment. The random-invalidation
      // test mode therefore only targets the genuinely dynamic guards.
      if (Ok && I.C != 2 && H.InvalidationCountdown &&
          --H.InvalidationCountdown == 0) {
        H.rearmInvalidation();
        Ok = false;
        Injected = true;
        ++stats().InjectedFailures;
        if (obs::traceOn())
          obs::traceEvent(obs::TraceEv::Invalidate, 0,
                          static_cast<uint64_t>(Pc));
      }
      if (!Ok) {
        ++stats().AssumeFailures;
        if (obs::traceOn())
          obs::traceEvent(obs::TraceEv::GuardFail, 0,
                          static_cast<uint64_t>(Pc), Injected);
        if (!H.Deopt)
          rerror("speculation failed and no deoptimization handler is "
                 "installed");
        // The paper's Listing 3: the deopt primitive is (tail-)called and
        // its result is the result of this activation.
        return H.Deopt(F, {S.data(), D.data(), Iv.data()}, I.Imm, CurEnv,
                       ParentEnv, Injected);
      }
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
      Pc = stepCmpBranchTaken(I, S.data(), D.data(), Iv.data()) ? I.Imm
                                                                : Pc + 1;
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
// per-op fallback path. Shares every op body/helper with the dispatch
// loop above — this is a second *driver*, not a second implementation.
//===----------------------------------------------------------------------===//

bool rjit::lowGuardHolds(const LowInstr &I, const DeoptMeta &M,
                         const Value *S) {
  switch (I.C) {
  case 0:
    return S[I.A].tag() == M.ExpectedTag;
  case 1:
    return S[I.A].tag() == Tag::Clos &&
           S[I.A].closObj()->Fn == M.ExpectedFun;
  case 2:
    return S[I.A].tag() == Tag::Builtin &&
           S[I.A].builtinId() == M.ExpectedBuiltin;
  default:
    return S[I.A].tag() == Tag::Lgl && S[I.A].asLglUnchecked();
  }
}

bool rjit::stepCmpBranchTaken(const LowInstr &I, const Value *S,
                              const double *D, const int32_t *Iv) {
  bool SenseTrue = I.C & 0x8000;
  uint16_t Packed = I.C & 0x7FFF;
  BinOp Op = static_cast<BinOp>(Packed >> 2);
  int Rank = Packed & 3;
  bool Cond;
  if (Rank == 2)
    Cond = cmpApply(Op, D[I.A], D[I.B]);
  else if (Rank == 1)
    Cond = cmpApply(Op, Iv[I.A], Iv[I.B]);
  else
    Cond = cplxArith(Op, S[I.A].asCplxUnchecked(), S[I.B].asCplxUnchecked())
               .asLglUnchecked();
  return Cond == SenseTrue;
}

void rjit::stepLowInstr(const LowFunction &F, const LowInstr &I, Value *S,
                        double *D, int32_t *Iv, Env *CurEnv, Env *ParentEnv,
                        Env *ReadEnv) {
  switch (I.Op) {
  case LowOp::LoadConst:
    loadConstOp(F, I, S, D, Iv);
    break;
  case LowOp::Move:
    moveOp(I, S, D, Iv);
    break;
  case LowOp::Box:
    boxOp(I, S, D, Iv);
    break;
  case LowOp::Unbox:
    unboxOp(I, S, D, Iv);
    break;
  case LowOp::Coerce:
    coerceOp(I, S, D, Iv);
    break;
  case LowOp::LdEnv:
    ldEnvOp(I, S, ReadEnv);
    break;
  case LowOp::StEnv:
    assert(CurEnv && "store requires a real environment");
    CurEnv->set(static_cast<Symbol>(I.Imm), S[I.A]);
    break;
  case LowOp::StEnvSuper:
    stEnvSuperOp(I, S, CurEnv, ParentEnv);
    break;
  case LowOp::MkClosLow:
    assert(CurEnv && "closures capture a real environment");
    S[I.Dst] = Value::closure(F.Origin->InnerFns[I.Imm], CurEnv);
    break;
  case LowOp::CallValLow:
  case LowOp::CallStaticLow:
    callValOp(I, S);
    break;
  case LowOp::CallBiLow:
    S[I.Dst] = callBuiltin(static_cast<BuiltinId>(I.C), &S[I.B],
                           static_cast<size_t>(I.Imm));
    break;
  case LowOp::ArithTyped:
    arithTypedOp(I, S, D, Iv);
    break;
  case LowOp::BinGenLow:
    S[I.Dst] = genericBinary(static_cast<BinOp>(I.C), S[I.A], S[I.B]);
    break;
  case LowOp::NegLow:
    S[I.Dst] = genericNeg(S[I.A]);
    break;
  case LowOp::NotLow:
    S[I.Dst] = genericNot(S[I.A]);
    break;
  case LowOp::AsCondLow:
    S[I.Dst] = Value::lgl(S[I.A].asCondition());
    break;
  case LowOp::Extract2Low:
    S[I.Dst] = extract2(S[I.A], S[I.B].toInt());
    break;
  case LowOp::Extract1Low:
    S[I.Dst] = extract1(S[I.A], S[I.B]);
    break;
  case LowOp::Extract2Typed:
    extract2TypedOp(I, S, D, Iv);
    break;
  case LowOp::SetElem2Low:
    setElem2Op(I, S);
    break;
  case LowOp::SetElem2Typed:
    setElem2TypedOp(I, S, D, Iv);
    break;
  case LowOp::SetIdx2EnvLow:
  case LowOp::SetIdx1EnvLow:
    setIdxEnvOp(I, S, CurEnv);
    break;
  case LowOp::LengthLow:
    Iv[I.Dst] = static_cast<int32_t>(S[I.A].length());
    break;
  case LowOp::GuardCond:
  case LowOp::JumpLow:
  case LowOp::BranchFalseLow:
  case LowOp::BranchTrueLow:
  case LowOp::CmpBranch:
  case LowOp::RetLow:
    assert(false && "control-flow op reached the fallback stepper");
    rerror("internal: control-flow op in stepLowInstr");
  }
}
