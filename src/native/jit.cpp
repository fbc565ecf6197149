//===-- native/jit.cpp - x86-64 native-tier backend -----------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Template stitching with two layers on top:
//
//  * Register allocation (native/regalloc.*): hot raw int/double slots
//    get whole-function register homes. The invariant is pc-independent —
//    "a homed slot's current value is in its register at every
//    instruction boundary" — so arbitrary LowCode jumps need no per-edge
//    fixup code.
//    A home's slot array entry may lag behind its register: the dirty-home
//    analysis (computeDirtyHomes) tracks, per pc, which homes may differ
//    from their arrays. A helper call stores only the dirty homes it
//    clobbers (caller-saved) or its op reads, and reloads the caller-saved
//    homes and the homes its op writes; a side exit stores every dirty
//    home, since deopt boxes raw frame-state values from the arrays.
//
//  * Boxed-slot templates: Box, boxed Move and LoadConst, and rank-1/2
//    compares (which write a boxed Lgl) store inline when the destination's
//    old value is an immediate, and leave the rest — releasing a heap
//    object — to an out-of-line stub that runs the op through the helper.
//    Boxed branch conditions test a Lgl inline. Typed element loads and
//    stores and length() of int and real vectors follow the same rule:
//    test, then access the vector inline, or run the whole op in a stub.
//
// Calls are helper calls like any other op: CallValLow runs the
// interpreter's handler, so a closure call out of native code goes through
// vmDispatchCall, the one call path every tier shares.
//
// Register plan: rbx = NativeFrame*, r12 = boxed slots (Value*), r13 = raw
// double slots, r14 = raw int32 slots; rax/rcx/rdx/rsi/rdi/xmm0/xmm1 are
// template scratch. Regalloc homes live in rbp/r15 (callee-saved) and
// r8-r11/xmm2-xmm15 (caller-saved).
//
// Exceptions never unwind through JIT frames (there is no unwind info for
// them): every helper catches at the boundary, parks the exception in the
// frame, and the generated code returns through the epilogue; invoke()
// rethrows.
//
//===----------------------------------------------------------------------===//

#include "native/native.h"

#if defined(__x86_64__) && defined(__GNUC__) &&                              \
    (defined(__unix__) || defined(__APPLE__))
#define RJIT_NATIVE_X64 1
#else
#define RJIT_NATIVE_X64 0
#endif

#if RJIT_NATIVE_X64

#include "lowcode/exec.h"
#include "lowcode/step.h"
#include "native/arena.h"
#include "native/emitter.h"
#include "native/regalloc.h"
#include "obs/trace.h"
#include "runtime/context.h"

#include <cstddef>
#include <cstring>
#include <exception>

// ClosObj (vtable) and NativeFrame (non-trivial members) are not
// standard-layout, so offsetof on them is "conditionally supported" —
// GCC and Clang, the only compilers this backend builds under, compute
// it correctly for any class without virtual bases.
#pragma GCC diagnostic ignored "-Winvalid-offsetof"

using namespace rjit;

namespace rjit {

/// Friend of Value and GcObject: the layout constants the templates
/// hard-code.
struct ValueLayout {
  static constexpr int32_t Tag = offsetof(Value, T);
  static constexpr int32_t Payload = offsetof(Value, I);
  /// GcObject's refcount, bumped in place by the boxed-copy templates.
  static constexpr int32_t RefCount = offsetof(GcObject, RefCount);
  static_assert(sizeof(GcObject::RefCount) == 4, "templates inc a dword");
};

} // namespace rjit

static_assert(sizeof(Value) == 24, "templates hard-code the Value stride");
static_assert(sizeof(RelaxedCounter) == 8,
              "templates inc a counter's qword in place");
static_assert(sizeof(std::atomic<uint64_t>) == 8 &&
                  std::atomic<uint64_t>::is_always_lock_free,
              "epoch checks compare the builtin watch's qword in place");

namespace {

/// The run-time frame generated code executes against. Built afresh per
/// activation by NativeExecutable::invoke on the executor's stack.
struct NativeFrame {
  const LowFunction *F = nullptr;
  Value *S = nullptr;
  double *D = nullptr;
  int32_t *Iv = nullptr;
  Env *CurEnv = nullptr;
  Env *ParentEnv = nullptr;
  Env *ReadEnv = nullptr;
  ExecContext *Ctx = nullptr; ///< injection countdown, deopt hook
  /// Element counts of pinned loop-invariant vectors (regalloc.h
  /// PinInfo::Cell indexes here); the pinned extract's bounds check reads
  /// its cell instead of the vector header. 0 = pin disabled, every
  /// bounds check fails to the slow stub.
  int64_t PinLen[NatMaxPins] = {};
  Value Result;
  std::exception_ptr Exc;
};

using NativeEntry = void (*)(NativeFrame *);

constexpr int32_t ValueStride = static_cast<int32_t>(sizeof(Value));

/// Offsets of std::vector<T>'s begin/end pointers, probed at run time —
/// the typed-extract template loads vector storage directly, and the
/// library's internal layout is not something to hard-code. When the
/// probe fails (an exotic layout), Valid stays false and the extract
/// falls back to its helper: slower, never wrong.
struct VecInternals {
  bool Valid = false;
  int32_t BeginOff = 0;
  int32_t EndOff = 0;
};

template <typename T> const VecInternals &vecInternals() {
  static const VecInternals L = [] {
    VecInternals R;
    // Capacity strictly above size: with size == capacity the end and
    // end-of-storage pointers are equal and the scan could mistake the
    // capacity pointer for the length pointer — which would turn the
    // fast path's bounds check into a capacity check.
    std::vector<T> V;
    V.reserve(4);
    V.resize(2);
    const char *Base = reinterpret_cast<const char *>(&V);
    const void *Data = V.data();
    const void *End = V.data() + 2;
    bool HaveBegin = false, HaveEnd = false;
    for (size_t Off = 0; Off + sizeof(void *) <= sizeof(V);
         Off += sizeof(void *)) {
      const void *P;
      std::memcpy(&P, Base + Off, sizeof(void *));
      if (!HaveBegin && P == Data) {
        R.BeginOff = static_cast<int32_t>(Off);
        HaveBegin = true;
      } else if (!HaveEnd && P == End) {
        R.EndOff = static_cast<int32_t>(Off);
        HaveEnd = true;
      }
    }
    R.Valid = HaveBegin && HaveEnd;
    return R;
  }();
  return L;
}

/// True when the typed-extract template has an inline path for element
/// kind \p K: real and int vectors, given the probed vector layout.
bool inlineExtract(Tag K) {
  return (K == Tag::Real && vecInternals<double>().Valid) ||
         (K == Tag::Int && vecInternals<int32_t>().Valid);
}

/// True when the typed-store template has an inline path for \p I: a
/// real or int store that steals its container (a container that stays
/// in its slot as well is shared, so the store copies it).
bool inlineStore(const LowInstr &I) {
  return stealsContainer(I) && inlineExtract(elemKind(I));
}

/// True when the length template has an inline path: both vector layouts
/// probed.
bool inlineLength() {
  return inlineExtract(Tag::Real) && inlineExtract(Tag::Int);
}

/// Where a real or int vector object keeps its elements.
struct ElemLayout {
  Tag VecTag;
  uint8_t ScaleLog; ///< log2 of the element size
  int32_t BeginOff; ///< offsets of the element pointers in the object
  int32_t EndOff;
};

ElemLayout elemLayout(Tag K) {
  if (K == Tag::Real) {
    const VecInternals &VI = vecInternals<double>();
    const int32_t D = static_cast<int32_t>(offsetof(RealVecObj, D));
    return {Tag::RealVec, 3, D + VI.BeginOff, D + VI.EndOff};
  }
  const VecInternals &VI = vecInternals<int32_t>();
  const int32_t D = static_cast<int32_t>(offsetof(IntVecObj, D));
  return {Tag::IntVec, 2, D + VI.BeginOff, D + VI.EndOff};
}

} // namespace

//===----------------------------------------------------------------------===//
// Helpers the templates call. extern "C": plain symbols, no mangling, and
// a guaranteed-simple calling convention for the stitcher. All catch at
// the JIT boundary.
//===----------------------------------------------------------------------===//

extern "C" {

/// Fallback: executes the (non-control-flow) op at \p Pc via the
/// interpreter's own handler. 0 = continue at Pc+1, -1 = exception parked.
static int64_t rjit_nat_step(NativeFrame *Fr, int32_t Pc) {
  try {
    stepLowInstr(*Fr->F, Fr->F->Code[Pc], Fr->S, Fr->D, Fr->Iv, Fr->CurEnv,
                 Fr->ParentEnv, Fr->ReadEnv);
    return 0;
  } catch (...) {
    Fr->Exc = std::current_exception();
    return -1;
  }
}

/// Boxed branch condition: 1 = truthy, 0 = falsy, -1 = exception parked.
static int64_t rjit_nat_cond(NativeFrame *Fr, int32_t Slot) {
  try {
    return Fr->S[Slot].asCondition() ? 1 : 0;
  } catch (...) {
    Fr->Exc = std::current_exception();
    return -1;
  }
}

/// Complex-rank CmpBranch: 1 = branch taken, 0 = fall through, -1 =
/// exception parked.
static int64_t rjit_nat_cmpbranch(NativeFrame *Fr, int32_t Pc) {
  try {
    return stepCmpBranchTaken(Fr->F->Code[Pc], Fr->S, Fr->D, Fr->Iv) ? 1
                                                                     : 0;
  } catch (...) {
    Fr->Exc = std::current_exception();
    return -1;
  }
}

/// RetLow: parks the result; the template jumps to the epilogue.
static void rjit_nat_ret(NativeFrame *Fr, int32_t Slot) {
  Fr->Result = std::move(Fr->S[Slot]);
}

} // extern "C"

namespace {

/// failGuard (lowcode/step.h) from a native frame: its result becomes
/// this activation's, and an exception is parked for the rethrow.
void guardDeopt(NativeFrame *Fr, int32_t Pc, bool Injected) {
  try {
    Fr->Result = failGuard(*Fr->Ctx, obs::TraceEv::NativeSideExit, *Fr->F,
                           Pc, {Fr->S, Fr->D, Fr->Iv}, Fr->CurEnv,
                           Fr->ParentEnv, Injected);
  } catch (...) {
    Fr->Exc = std::current_exception();
  }
}

} // namespace

extern "C" {

/// Side exit for a guard whose inline test failed (the fact is false).
static void rjit_nat_guard_fail(NativeFrame *Fr, int32_t Pc) {
  guardDeopt(Fr, Pc, /*Injected=*/false);
}

/// Slow path for a *passing* dynamic guard while the random-invalidation
/// countdown is armed (§5.1 test mode): decrement, and on zero inject a
/// spurious failure. 0 = continue, 1 = activation ended.
static int64_t rjit_nat_guard_tick(NativeFrame *Fr, int32_t Pc) {
  if (--Fr->Ctx->Low.InvalidationCountdown != 0)
    return 0;
  guardDeopt(Fr, Pc, /*Injected=*/true);
  return 1;
}

} // extern "C"

//===----------------------------------------------------------------------===//
// The stitcher
//===----------------------------------------------------------------------===//

namespace {

class Stitcher {
public:
  /// \p Ctx: the backend's Vm's context — the counters the emitted code
  /// bumps and the builtin watch its epoch checks read.
  Stitcher(const LowFunction &F, ExecContext &Ctx) : F(F), Ctx(Ctx) {
    // Pins require the inline typed-extract fast path: without the probed
    // vector layout every extract is a main-path helper call, which would
    // clobber caller-saved pin registers mid-loop.
    bool AllowPins =
        vecInternals<double>().Valid && vecInternals<int32_t>().Valid;
    RA = allocateRegisters(F, AllowPins);
    // Must stay in lockstep with the allocator's own intConstSlots call:
    // slots it skipped as candidates fold to immediates here.
    IC = intConstSlots(F);
    for (uint16_t S = 0; S < RA.IntHome.size(); ++S)
      if (RA.IntHome[S] >= 0) {
        if (!natGprCalleeSaved(static_cast<uint8_t>(RA.IntHome[S])))
          CallerSaved |= HomeSet(1) << HomeSlots.size();
        HomeSlots.push_back({S, SlotClass::RawInt});
      }
    for (uint16_t S = 0; S < RA.RealHome.size(); ++S)
      if (RA.RealHome[S] >= 0) {
        CallerSaved |= HomeSet(1) << HomeSlots.size(); // every XMM
        HomeSlots.push_back({S, SlotClass::RawReal});
      }
    computeDirtyHomes();
  }

  /// Compiles F into \p Out. Returns false when the function has no code
  /// (callers fall back to the interpreter executable).
  bool compile(std::vector<uint8_t> &Out) {
    if (F.Code.empty())
      return false;

    emitPrologue();
    for (int32_t Pc = 0; Pc < static_cast<int32_t>(F.Code.size()); ++Pc) {
      // Pin hoists precede the header's own offset: the backedge (which
      // targets InstrOff[Pc]) skips them, the fallthrough entry runs
      // them — once per loop entry, not per iteration.
      for (const PinInfo &P : RA.Pins)
        if (P.HeaderPc == Pc)
          emitPinHoist(P);
      InstrOff.push_back(A.size());
      emitInstr(Pc, F.Code[Pc]);
    }
    A.ud2(); // falling off the end is malformed LowCode

    emitStubs();
    size_t Epi = emitEpilogue();

    for (size_t Site : EpiFix)
      A.patchRel32(Site, Epi);
    for (const auto &[Site, Pc] : PcFix)
      A.patchRel32(Site, InstrOff[Pc]);

    Out = std::move(A.Buf);
    return true;
  }

  uint32_t regSpills() const { return RA.Spills; }

private:
  const LowFunction &F;
  ExecContext &Ctx;
  RegAllocation RA;
  IntConstMap IC;
  X64Emitter A;
  std::vector<size_t> InstrOff;
  std::vector<std::pair<size_t, int32_t>> PcFix; ///< rel32 -> LowCode pc
  std::vector<size_t> EpiFix;                    ///< rel32 -> epilogue

  /// A set of register homes: bit B is HomeSlots[B].
  using HomeSet = uint32_t;
  static_assert(NatGprPoolSize + NatXmmPoolSize <= 32, "a home per bit");
  std::vector<LiveRef> HomeSlots; ///< int homes, then real, by slot
  HomeSet CallerSaved = 0;        ///< the homes a C call clobbers
  /// Per pc: the homes whose register may differ from their slot array
  /// when the op starts (computeDirtyHomes).
  std::vector<HomeSet> DirtyIn;

  struct Stub {
    enum Kind {
      GuardFail, ///< side exit: deopt protocol, then epilogue
      GuardTick, ///< armed invalidation countdown on a passing guard
      StepSlow,  ///< run the op via the interpreter handler, resume
      CondSlow,  ///< boxed branch condition that is not a Lgl
    };
    int32_t Pc;
    Kind K;
    std::vector<size_t> Sites; ///< rel32 fields jumping to this stub
    size_t Resume = 0;         ///< body offset to resume at (tick/slow)
  };
  std::vector<Stub> Stubs;

  //===-- Frame/slot addressing -------------------------------------------//

  static int32_t sOff(uint16_t Slot, int32_t Member = 0) {
    return static_cast<int32_t>(Slot) * ValueStride + Member;
  }
  static int32_t dOff(uint16_t Slot) {
    return static_cast<int32_t>(Slot) * 8;
  }
  static int32_t iOff(uint16_t Slot) {
    return static_cast<int32_t>(Slot) * 4;
  }

  //===-- Register homes --------------------------------------------------//

  /// Reads a raw-int slot: its home register, a folded immediate in
  /// \p Scratch for known-constant slots, or a load into \p Scratch.
  uint8_t intSrc(uint16_t Slot, uint8_t Scratch) {
    int16_t H = RA.intHome(Slot);
    if (H >= 0)
      return static_cast<uint8_t>(H);
    if (IC.known(Slot)) {
      A.movRegImm32(Scratch, static_cast<uint32_t>(IC.val(Slot)));
      return Scratch;
    }
    A.movRegMem32(Scratch, R14, iOff(Slot));
    return Scratch;
  }

  /// Writes a raw-int slot from \p Src (register): to its home, or to the
  /// slot array. A homed slot's array entry is NOT kept current: the
  /// write makes the home dirty (computeDirtyHomes).
  void intStore(uint16_t Slot, uint8_t Src) {
    int16_t H = RA.intHome(Slot);
    if (H >= 0) {
      if (H != Src)
        A.movRegReg32(static_cast<uint8_t>(H), Src);
    } else {
      A.movMemReg32(R14, iOff(Slot), Src);
    }
  }

  uint8_t realSrc(uint16_t Slot, uint8_t Scratch) {
    int16_t H = RA.realHome(Slot);
    if (H >= 0)
      return static_cast<uint8_t>(H);
    A.movsdXmmMem(Scratch, R13, dOff(Slot));
    return Scratch;
  }

  void realStore(uint16_t Slot, uint8_t Src) {
    int16_t H = RA.realHome(Slot);
    if (H >= 0) {
      if (H != Src)
        A.movapsXmmXmm(static_cast<uint8_t>(H), Src);
    } else {
      A.movsdMemXmm(R13, dOff(Slot), Src);
    }
  }

  /// Stores the homes in \p Set to their slot arrays.
  void storeHomes(HomeSet Set) {
    for (size_t B = 0; B < HomeSlots.size(); ++B) {
      if (!(Set >> B & 1))
        continue;
      uint16_t Slot = HomeSlots[B].Slot;
      if (HomeSlots[B].K == SlotClass::RawInt)
        A.movMemReg32(R14, iOff(Slot), static_cast<uint8_t>(RA.IntHome[Slot]));
      else
        A.movsdMemXmm(R13, dOff(Slot), static_cast<uint8_t>(RA.RealHome[Slot]));
    }
  }

  /// Loads the homes in \p Set from their slot arrays. Pure moves — never
  /// disturbs EFLAGS, so a reload may sit between a test and its jcc.
  void loadHomes(HomeSet Set) {
    for (size_t B = 0; B < HomeSlots.size(); ++B) {
      if (!(Set >> B & 1))
        continue;
      uint16_t Slot = HomeSlots[B].Slot;
      if (HomeSlots[B].K == SlotClass::RawInt)
        A.movRegMem32(static_cast<uint8_t>(RA.IntHome[Slot]), R14, iOff(Slot));
      else
        A.movsdXmmMem(static_cast<uint8_t>(RA.RealHome[Slot]), R13, dOff(Slot));
    }
  }

  HomeSet homeOf(LiveRef R) const {
    for (size_t B = 0; B < HomeSlots.size(); ++B)
      if (HomeSlots[B].Slot == R.Slot && HomeSlots[B].K == R.K)
        return HomeSet(1) << B;
    return 0;
  }
  HomeSet useHomes(const LowInstr &I) const {
    HomeSet S = 0;
    forEachUse(I, [&](LiveRef R) { S |= homeOf(R); });
    return S;
  }
  HomeSet defHomes(const LowInstr &I) const {
    HomeSet S = 0;
    forEachDef(I, [&](LiveRef R) { S |= homeOf(R); });
    return S;
  }

  /// True when \p I's main path calls out of generated code: the step
  /// helper or the complex compare-branch helper.
  /// emitInstr routes exactly these ops to a helper and the dirty-home
  /// analysis reads the same answer, so the two cannot disagree about
  /// which ops clobber the caller-saved homes. RetLow's helper ends the
  /// activation, and stubs are off the main path.
  static bool callsHelper(const LowInstr &I) {
    switch (I.Op) {
    case LowOp::LoadConst:
    case LowOp::Box:
    case LowOp::Unbox:
    case LowOp::GuardCond:
    case LowOp::EpochCheck:
    case LowOp::JumpLow:
    case LowOp::BranchFalseLow:
    case LowOp::BranchTrueLow:
    case LowOp::RetLow:
      return false;
    case LowOp::Move: // a boxed self-move keeps the helper
      return static_cast<SlotClass>(I.B) == SlotClass::Boxed && I.Dst == I.A;
    case LowOp::Coerce:
      return coerceSrcClass(I) == SlotClass::Boxed ||
             static_cast<SlotClass>(I.B) == SlotClass::Boxed;
    case LowOp::ArithTyped:
      return !inlinedArith(arithOp(I), arithRank(I)) &&
             !stubbedArith(arithOp(I), arithRank(I));
    case LowOp::Extract2Typed:
      return !inlineExtract(elemKind(I));
    case LowOp::SetElem2Typed:
      return !inlineStore(I);
    case LowOp::LengthLow:
      return !inlineLength();
    case LowOp::CmpBranch:
      return rankClass(arithRank(I)) == SlotClass::Boxed;
    default:
      return true;
    }
  }

  /// The ArithTyped forms compiled inline with a stub, beside the
  /// allocator's inlinedArith ones: rank-1/2 compares (their result is a
  /// boxed Lgl) and rank-1 %% and %/% (a divisor of 0 or -1 takes the
  /// stub).
  static bool stubbedArith(BinOp Op, int Rank) {
    if (isComparison(Op))
      return Rank == 1 || Rank == 2;
    return Rank == 1 && (Op == BinOp::Mod || Op == BinOp::IDiv);
  }

  /// The dirty-home analysis, a forward dataflow over LowCode pcs. A home
  /// is dirty where its register may hold a value its slot array does
  /// not: an inline template wrote it and no helper call has stored it
  /// since. Entry is all clean (the prologue loads every home from the
  /// arrays); dirty sets union where control flow merges. An inline op
  /// dirties the homes it writes — its stubs leave the arrays no staler
  /// than its fast path does. A helper call leaves clean every home it
  /// stored or reloaded (emitOpCall).
  void computeDirtyHomes() {
    const int32_t N = static_cast<int32_t>(F.Code.size());
    DirtyIn.assign(static_cast<size_t>(N), 0);
    if (HomeSlots.empty())
      return;
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (int32_t Pc = 0; Pc < N; ++Pc) {
        const LowInstr &I = F.Code[Pc];
        HomeSet Out = callsHelper(I) ? DirtyIn[Pc] & ~(CallerSaved |
                                                       useHomes(I) |
                                                       defHomes(I))
                                     : DirtyIn[Pc] | defHomes(I);
        auto Flow = [&](int32_t To) {
          if (To < N && (DirtyIn[To] | Out) != DirtyIn[To]) {
            DirtyIn[To] |= Out;
            Changed = true;
          }
        };
        if (I.Op == LowOp::RetLow)
          continue;
        if (I.Op != LowOp::JumpLow)
          Flow(Pc + 1);
        if (isBranch(I.Op))
          Flow(I.Imm);
      }
    }
  }

  //===-- Loop-invariant vector pins --------------------------------------//

  static int32_t pinLenOff(uint8_t Cell) {
    return static_cast<int32_t>(offsetof(NativeFrame, PinLen)) + Cell * 8;
  }

  /// The pin covering (\p Pc, vector slot \p VecSlot, element kind \p K),
  /// or null.
  const PinInfo *pinFor(int32_t Pc, uint16_t VecSlot, Tag K) const {
    for (const PinInfo &P : RA.Pins)
      if (P.VecSlot == VecSlot && P.ElemTag == static_cast<uint8_t>(K) &&
          Pc >= P.HeaderPc && Pc <= P.EndPc)
        return &P;
    return nullptr;
  }

  /// Loads the pinned vector's element pointer into its register and its
  /// element count into its PinLen cell. Tag mismatch (the speculated
  /// vector kind is wrong this entry) stores count 0: every pinned bounds
  /// check then fails into the slow stub, which is slower but never
  /// wrong. Clobbers rax/rdx; emitted at loop headers (before the
  /// header's label) and re-emitted after any in-loop stub helper call,
  /// which may have clobbered a caller-saved pin register.
  void emitPinHoist(const PinInfo &P) {
    ElemLayout L = elemLayout(static_cast<Tag>(P.ElemTag));
    A.cmpMem8Imm8(R12, sOff(P.VecSlot, ValueLayout::Tag),
                  static_cast<uint8_t>(L.VecTag));
    size_t Miss = A.jcc32(CcNe);
    A.movRegMem64(RAX, R12, sOff(P.VecSlot, ValueLayout::Payload));
    emitElemRange(L, P.Gpr);
    size_t Done = A.jmp32();
    A.patchRel32(Miss, A.size());
    A.movRegImm32(RDX, 0); // disabled; the pin register stays dead
    A.patchRel32(Done, A.size());
    A.movMemReg64(RBX, pinLenOff(P.Cell), RDX);
  }

  /// Re-establishes every pin whose interval covers \p Pc — after a stub
  /// helper call that resumes inside the loop.
  void emitPinReloads(int32_t Pc) {
    for (const PinInfo &P : RA.Pins)
      if (Pc >= P.HeaderPc && Pc <= P.EndPc)
        emitPinHoist(P);
  }

  //===-- Common sequences ------------------------------------------------//

  /// From the vector object in rax: \p Data <- its element pointer and
  /// rdx <- its element count.
  void emitElemRange(const ElemLayout &L, uint8_t Data) {
    A.movRegMem64(RDX, RAX, L.EndOff);
    A.movRegMem64(Data, RAX, L.BeginOff);
    A.subRegReg64(RDX, Data);
    A.shrRegImm8(RDX, L.ScaleLog);
  }

  template <typename Fn> void helperCall(Fn *Target, int32_t Arg) {
    A.movRegReg64(RDI, RBX);
    A.movRegImm32(RSI, static_cast<uint32_t>(Arg));
    A.movRegImm64(RAX, reinterpret_cast<uint64_t>(
                           reinterpret_cast<void *>(Target)));
    A.callReg(RAX);
  }

  /// Bumps one of the Vm's counters. A plain inc: its executor, the thread
  /// running this code, is the counter's only writer.
  void emitCount(RelaxedCounter &C) {
    A.movRegImm64(RAX, reinterpret_cast<uint64_t>(&C));
    A.incMem64(RAX, 0);
  }

  /// Calls \p Target(frame, \p Arg) for the op at \p Pc and bails to the
  /// epilogue on a parked exception (a negative result). Before the call
  /// it stores the dirty homes the call clobbers or the op reads; after
  /// it, it reloads the caller-saved homes and the homes the op writes —
  /// so every home it touches is clean afterwards. The result's flags
  /// survive the reloads. \p Counted bumps NativeHelperCalls and the op's
  /// cell of NativeHelperCallsByOp first.
  template <typename Fn>
  void emitOpCall(int32_t Pc, Fn *Target, int32_t Arg, bool Counted = false) {
    const LowInstr &I = F.Code[Pc];
    storeHomes(DirtyIn[Pc] & (CallerSaved | useHomes(I)));
    if (Counted) {
      emitCount(Ctx.Stats.NativeHelperCalls);
      emitCount(Ctx.Stats.NativeHelperCallsByOp[static_cast<uint8_t>(I.Op)]);
    }
    helperCall(Target, Arg);
    A.testRegReg64(RAX, RAX);
    EpiFix.push_back(A.jcc32(CcS));
    loadHomes(CallerSaved | defHomes(I));
  }

  /// Fallback template: run the op via the interpreter handler, counted
  /// in NativeHelperCalls and by op.
  void emitStep(int32_t Pc) {
    emitOpCall(Pc, rjit_nat_step, Pc, /*Counted=*/true);
  }

  void emitPrologue() {
    // 5 callee-saved pushes + the return address = 48 bytes: rsp stays
    // 16-byte aligned at every helper call site. When regalloc claims
    // rbp, a sixth push plus 8 pad bytes keep the same alignment.
    A.pushReg(RBX);
    A.pushReg(R12);
    A.pushReg(R13);
    A.pushReg(R14);
    A.pushReg(R15);
    if (RA.UsesRbp) {
      A.pushReg(RBP);
      A.subRegImm8(RSP, 8);
    }
    A.movRegReg64(RBX, RDI);
    A.movRegMem64(R12, RBX, offsetof(NativeFrame, S));
    A.movRegMem64(R13, RBX, offsetof(NativeFrame, D));
    A.movRegMem64(R14, RBX, offsetof(NativeFrame, Iv));
    // Establish the home invariant from the freshly spilled entry state.
    loadHomes(~HomeSet(0));
  }

  size_t emitEpilogue() {
    size_t At = A.size();
    if (RA.UsesRbp) {
      A.addRegImm8(RSP, 8);
      A.popReg(RBP);
    }
    A.popReg(R15);
    A.popReg(R14);
    A.popReg(R13);
    A.popReg(R12);
    A.popReg(RBX);
    A.ret();
    return At;
  }

  void emitStubs() {
    for (const Stub &St : Stubs) {
      size_t Here = A.size();
      for (size_t Site : St.Sites)
        A.patchRel32(Site, Here);
      // Every stub is entered before its op wrote anything: the dirty
      // homes are the op's DirtyIn.
      switch (St.K) {
      case Stub::GuardFail:
        // Deopt boxes the raw frame-state values from the arrays, so every
        // dirty home is stored; the activation ends here — no reload.
        storeHomes(DirtyIn[St.Pc]);
        helperCall(rjit_nat_guard_fail, St.Pc);
        EpiFix.push_back(A.jmp32());
        break;
      case Stub::GuardTick:
        // An injected failure deopts from inside the helper: store every
        // dirty home as GuardFail does. It writes no raw slot, so only the
        // caller-saved homes need reloading when the guard passes on.
        storeHomes(DirtyIn[St.Pc]);
        helperCall(rjit_nat_guard_tick, St.Pc);
        A.testRegReg64(RAX, RAX);
        EpiFix.push_back(A.jcc32(CcNe)); // 1 = activation ended
        loadHomes(CallerSaved);
        emitPinReloads(St.Pc); // the helper clobbered caller-saved pins
        A.patchRel32(A.jmp32(), St.Resume);
        break;
      case Stub::StepSlow:
        emitStep(St.Pc);
        emitPinReloads(St.Pc);
        A.patchRel32(A.jmp32(), St.Resume);
        break;
      case Stub::CondSlow: {
        // rax = 1 (truthy) or 0: the fast path's taken condition applies.
        // No pin reload: it would clobber the flags, and pinSafeOp keeps
        // branches on boxed conditions out of pinned loops.
        const LowInstr &I = F.Code[St.Pc];
        emitOpCall(St.Pc, rjit_nat_cond, I.A);
        PcFix.push_back({A.jcc32(condTaken(I)), I.Imm});
        A.patchRel32(A.jmp32(), St.Resume);
        break;
      }
      }
    }
  }

  //===-- Inline arithmetic (home-aware) ----------------------------------//

  void realOpXmm(BinOp Op, uint8_t Dst, uint8_t Src) {
    switch (Op) {
    case BinOp::Add:
      A.addsdXmmXmm(Dst, Src);
      break;
    case BinOp::Sub:
      A.subsdXmmXmm(Dst, Src);
      break;
    case BinOp::Mul:
      A.mulsdXmmXmm(Dst, Src);
      break;
    default:
      A.divsdXmmXmm(Dst, Src);
      break;
    }
  }

  /// Applies `X op= slot B` (B from its home or memory).
  void realRhs(BinOp Op, uint8_t X, uint16_t BSlot) {
    int16_t H = RA.realHome(BSlot);
    if (H >= 0) {
      realOpXmm(Op, X, static_cast<uint8_t>(H));
      return;
    }
    switch (Op) {
    case BinOp::Add:
      A.addsdXmmMem(X, R13, dOff(BSlot));
      break;
    case BinOp::Sub:
      A.subsdXmmMem(X, R13, dOff(BSlot));
      break;
    case BinOp::Mul:
      A.mulsdXmmMem(X, R13, dOff(BSlot));
      break;
    default:
      A.divsdXmmMem(X, R13, dOff(BSlot));
      break;
    }
  }

  /// Computes `A op B` into xmm0 (copies A out of its home first — an
  /// operand's home is never clobbered).
  void realArithToScratch(BinOp Op, uint16_t ASlot, uint16_t BSlot) {
    uint8_t Ax = realSrc(ASlot, 0);
    if (Ax != 0)
      A.movapsXmmXmm(0, Ax);
    realRhs(Op, 0, BSlot);
  }

  void intOpReg(BinOp Op, uint8_t Dst, uint8_t Src) {
    switch (Op) {
    case BinOp::Add:
      A.addRegReg32(Dst, Src);
      break;
    case BinOp::Sub:
      A.subRegReg32(Dst, Src);
      break;
    default:
      A.imulRegReg32(Dst, Src);
      break;
    }
  }

  void intRhs(BinOp Op, uint8_t R, uint16_t BSlot) {
    int16_t H = RA.intHome(BSlot);
    if (H >= 0) {
      intOpReg(Op, R, static_cast<uint8_t>(H));
      return;
    }
    if (IC.known(BSlot)) {
      uint32_t Imm = static_cast<uint32_t>(IC.val(BSlot));
      switch (Op) {
      case BinOp::Add:
        A.addRegImm32(R, Imm);
        break;
      case BinOp::Sub:
        A.subRegImm32(R, Imm);
        break;
      default:
        A.imulRegRegImm32(R, R, Imm);
        break;
      }
      return;
    }
    switch (Op) {
    case BinOp::Add:
      A.addRegMem32(R, R14, iOff(BSlot));
      break;
    case BinOp::Sub:
      A.subRegMem32(R, R14, iOff(BSlot));
      break;
    default:
      A.imulRegMem32(R, R14, iOff(BSlot));
      break;
    }
  }

  /// Computes `A op B` into eax. x86 two's-complement wraparound = the
  /// handler's unsigned-wrap semantics.
  void intArithToScratch(BinOp Op, uint16_t ASlot, uint16_t BSlot) {
    uint8_t Ar = intSrc(ASlot, RAX);
    if (Ar != RAX)
      A.movRegReg32(RAX, Ar);
    intRhs(Op, RAX, BSlot);
  }

  /// Emits `Dst <- A op B` directly in Dst's home register, skipping the
  /// scratch round-trip. Returns false when Dst has no home or the form
  /// would clobber an operand (Dst == B for a non-commutative op) —
  /// the caller falls back to the scratch sequence.
  bool realArithInPlace(BinOp Op, uint16_t DstSlot, uint16_t ASlot,
                        uint16_t BSlot) {
    int16_t DH = RA.realHome(DstSlot);
    if (DH < 0)
      return false;
    uint8_t D = static_cast<uint8_t>(DH);
    int16_t AH = RA.realHome(ASlot);
    if (AH == DH) {
      realRhs(Op, D, BSlot);
      return true;
    }
    if (RA.realHome(BSlot) == DH) {
      if (Op != BinOp::Add && Op != BinOp::Mul)
        return false; // Dst aliases the right operand of Sub/Div
      realRhs(Op, D, ASlot);
      return true;
    }
    if (AH >= 0)
      A.movapsXmmXmm(D, static_cast<uint8_t>(AH));
    else
      A.movsdXmmMem(D, R13, dOff(ASlot));
    realRhs(Op, D, BSlot);
    return true;
  }

  bool intArithInPlace(BinOp Op, uint16_t DstSlot, uint16_t ASlot,
                       uint16_t BSlot) {
    int16_t DH = RA.intHome(DstSlot);
    if (DH < 0)
      return false;
    uint8_t D = static_cast<uint8_t>(DH);
    int16_t AH = RA.intHome(ASlot);
    if (AH == DH) {
      intRhs(Op, D, BSlot);
      return true;
    }
    if (RA.intHome(BSlot) == DH) {
      if (Op != BinOp::Add && Op != BinOp::Mul)
        return false;
      intRhs(Op, D, ASlot);
      return true;
    }
    uint8_t Ar = intSrc(ASlot, D);
    if (Ar != D)
      A.movRegReg32(D, Ar);
    intRhs(Op, D, BSlot);
    return true;
  }

  //===-- Per-op templates ------------------------------------------------//

  void emitInstr(int32_t Pc, const LowInstr &I) {
    if (callsHelper(I)) {
      if (I.Op == LowOp::CmpBranch) {
        // Complex rank: the helper computes taken-ness from boxed slots.
        emitOpCall(Pc, rjit_nat_cmpbranch, Pc);
        PcFix.push_back({A.jcc32(CcNe), I.Imm});
      } else {
        emitStep(Pc);
      }
      return;
    }
    switch (I.Op) {
    case LowOp::LoadConst: {
      SlotClass K = static_cast<SlotClass>(I.B);
      if (K == SlotClass::RawReal) {
        double V = F.Consts[I.Imm].asRealUnchecked();
        uint64_t Bits;
        std::memcpy(&Bits, &V, 8);
        A.movRegImm64(RAX, Bits);
        int16_t H = RA.realHome(I.Dst);
        if (H >= 0)
          A.movqXmmReg64(static_cast<uint8_t>(H), RAX);
        else
          A.movMemReg64(R13, dOff(I.Dst), RAX);
      } else if (K == SlotClass::RawInt) {
        uint32_t Imm = static_cast<uint32_t>(
            F.Consts[I.Imm].asIntUnchecked());
        int16_t H = RA.intHome(I.Dst);
        if (H >= 0)
          A.movRegImm32(static_cast<uint8_t>(H), Imm);
        else
          A.movMem32Imm32(R14, iOff(I.Dst), Imm);
      } else {
        emitBoxedConst(Pc, I);
      }
      return;
    }
    case LowOp::Move: {
      SlotClass K = static_cast<SlotClass>(I.B);
      if (K == SlotClass::RawReal)
        realStore(I.Dst, realSrc(I.A, 0));
      else if (K == SlotClass::RawInt)
        intStore(I.Dst, intSrc(I.A, RAX));
      else
        emitBoxedMove(Pc, I);
      return;
    }
    case LowOp::Box:
      emitBox(Pc, I);
      return;
    case LowOp::Unbox:
      // Reading a payload needs no refcount traffic: bit-copy it into the
      // raw home (the tag was guaranteed by the guard that dominates
      // every Unbox).
      if (static_cast<SlotClass>(I.C) == SlotClass::RawReal) {
        int16_t H = RA.realHome(I.Dst);
        if (H >= 0) {
          A.movsdXmmMem(static_cast<uint8_t>(H), R12,
                        sOff(I.A, ValueLayout::Payload));
        } else {
          A.movRegMem64(RAX, R12, sOff(I.A, ValueLayout::Payload));
          A.movMemReg64(R13, dOff(I.Dst), RAX);
        }
      } else {
        int16_t H = RA.intHome(I.Dst);
        if (H >= 0) {
          A.movRegMem32(static_cast<uint8_t>(H), R12,
                        sOff(I.A, ValueLayout::Payload));
        } else {
          A.movRegMem32(RAX, R12, sOff(I.A, ValueLayout::Payload));
          A.movMemReg32(R14, iOff(I.Dst), RAX);
        }
      }
      return;
    case LowOp::Coerce: { // raw to raw: callsHelper takes the boxed forms
      SlotClass SrcK = coerceSrcClass(I);
      SlotClass DstK = static_cast<SlotClass>(I.B);
      if (DstK == SlotClass::RawReal && SrcK == SlotClass::RawReal) {
        realStore(I.Dst, realSrc(I.A, 0));
      } else if (DstK == SlotClass::RawReal) {
        int16_t DH = RA.realHome(I.Dst);
        uint8_t X = DH >= 0 ? static_cast<uint8_t>(DH) : 0;
        int16_t AH = RA.intHome(I.A);
        if (AH >= 0)
          A.cvtsi2sdXmmReg32(X, static_cast<uint8_t>(AH));
        else
          A.cvtsi2sdXmmMem32(X, R14, iOff(I.A));
        if (DH < 0)
          A.movsdMemXmm(R13, dOff(I.Dst), 0);
      } else if (SrcK == SlotClass::RawInt) {
        intStore(I.Dst, intSrc(I.A, RAX));
      } else {
        // cvttsd2si is realToInt: toward zero, INT32_MIN when out of range.
        int16_t DH = RA.intHome(I.Dst);
        uint8_t R =
            DH >= 0 ? static_cast<uint8_t>(DH) : static_cast<uint8_t>(RAX);
        int16_t AH = RA.realHome(I.A);
        if (AH >= 0)
          A.cvttsd2siRegXmm(R, static_cast<uint8_t>(AH));
        else
          A.cvttsd2siRegMem(R, R13, dOff(I.A));
        if (DH < 0)
          A.movMemReg32(R14, iOff(I.Dst), RAX);
      }
      return;
    }
    case LowOp::ArithTyped: {
      BinOp Op = arithOp(I);
      if (isComparison(Op)) {
        emitCompare(Pc, I);
      } else if (Op == BinOp::Mod || Op == BinOp::IDiv) {
        emitIntDivMod(Pc, I);
      } else if (arithRank(I) == 2) {
        if (!realArithInPlace(Op, I.Dst, I.A, I.B)) {
          realArithToScratch(Op, I.A, I.B);
          realStore(I.Dst, 0);
        }
      } else if (!intArithInPlace(Op, I.Dst, I.A, I.B)) {
        intArithToScratch(Op, I.A, I.B);
        intStore(I.Dst, RAX);
      }
      return;
    }
    case LowOp::Extract2Typed:
      emitExtract2Typed(Pc, I);
      return;
    case LowOp::SetElem2Typed:
      emitSetElem2Typed(Pc, I);
      return;
    case LowOp::LengthLow:
      emitLength(Pc, I);
      return;
    case LowOp::GuardCond:
      emitGuard(Pc, I);
      return;
    case LowOp::EpochCheck:
      emitEpochCheck(Pc);
      return;
    case LowOp::JumpLow:
      PcFix.push_back({A.jmp32(), I.Imm});
      return;
    case LowOp::BranchFalseLow:
    case LowOp::BranchTrueLow: {
      // A Lgl condition is its payload; any other tag goes to the
      // condition helper in a CondSlow stub.
      Stub Slow{Pc, Stub::CondSlow, {}, 0};
      A.cmpMem8Imm8(R12, sOff(I.A, ValueLayout::Tag),
                    static_cast<uint8_t>(Tag::Lgl));
      Slow.Sites.push_back(A.jcc32(CcNe));
      A.cmpMem32Imm32(R12, sOff(I.A, ValueLayout::Payload), 0);
      PcFix.push_back({A.jcc32(condTaken(I)), I.Imm});
      Slow.Resume = A.size();
      Stubs.push_back(std::move(Slow));
      return;
    }
    case LowOp::CmpBranch:
      emitCmpBranch(I);
      return;
    case LowOp::RetLow:
      // The activation ends: nothing reads the raw arrays or the homes
      // again, so no flush.
      helperCall(rjit_nat_ret, I.A);
      EpiFix.push_back(A.jmp32());
      return;
    default:
      assert(false && "callsHelper sends every other op to a helper");
      return;
    }
  }

  /// The flags condition under which a boxed branch is taken, after a
  /// compare of its condition's truth value with 0.
  static Cc condTaken(const LowInstr &I) {
    return I.Op == LowOp::BranchTrueLow ? CcNe : CcE;
  }

  //===-- Boxed-slot templates --------------------------------------------//
  //
  // Each writes its boxed destination inline when the destination's old
  // value holds no refcounted payload (tag <= Cplx), so overwriting it
  // releases nothing; otherwise it jumps to a StepSlow stub, where the
  // helper runs the whole op and releases the old value. Every fast path
  // tests before it writes, so the stub reruns the op on unchanged inputs.

  /// Jumps to \p Slow unless boxed slot \p Slot holds an immediate.
  void testImmediateDst(uint16_t Slot, Stub &Slow) {
    A.cmpMem8Imm8(R12, sOff(Slot, ValueLayout::Tag),
                  static_cast<uint8_t>(Tag::Cplx));
    Slow.Sites.push_back(A.jcc32(CcA));
  }

  /// Writes \p T as the whole tag word of boxed slot \p Slot: a later
  /// 8-byte copy of the slot then reads back one store of its own width.
  void storeTag(uint16_t Slot, Tag T) {
    A.movMem64Imm32(R12, sOff(Slot, ValueLayout::Tag),
                    static_cast<uint32_t>(T));
  }

  void resumeAfter(Stub &Slow) {
    Slow.Resume = A.size();
    Stubs.push_back(std::move(Slow));
  }

  /// Boxed Dst <- raw A.
  void emitBox(int32_t Pc, const LowInstr &I) {
    Stub Slow{Pc, Stub::StepSlow, {}, 0};
    testImmediateDst(I.Dst, Slow);
    if (static_cast<SlotClass>(I.C) == SlotClass::RawReal) {
      A.movsdMemXmm(R12, sOff(I.Dst, ValueLayout::Payload),
                    realSrc(I.A, 0));
      storeTag(I.Dst, Tag::Real);
    } else {
      // A 32-bit move zero-extends: the payload word then holds exactly
      // what Value::integer leaves in it.
      uint8_t R = intSrc(I.A, RAX);
      if (R != RAX)
        A.movRegReg32(RAX, R);
      A.movMemReg64(R12, sOff(I.Dst, ValueLayout::Payload), RAX);
      storeTag(I.Dst, Tag::Int);
    }
    resumeAfter(Slow);
  }

  /// Boxed Dst <- Consts[Imm]: the constant's payload as immediates, or
  /// its heap object with one more reference (the LowFunction's constant
  /// pool holds the object as long as this code lives).
  void emitBoxedConst(int32_t Pc, const LowInstr &I) {
    const Value &V = F.Consts[I.Imm];
    Stub Slow{Pc, Stub::StepSlow, {}, 0};
    testImmediateDst(I.Dst, Slow);
    if (GcObject *Obj = V.heapPayload()) {
      A.movRegImm64(RAX, reinterpret_cast<uint64_t>(Obj));
      A.incMem32(RAX, ValueLayout::RefCount);
      A.movMemReg64(R12, sOff(I.Dst, ValueLayout::Payload), RAX);
    } else {
      const int32_t Words = V.tag() == Tag::Cplx ? 2 : 1;
      for (int32_t W = 0; W < Words; ++W) {
        int32_t Off = ValueLayout::Payload + 8 * W;
        uint64_t Bits;
        std::memcpy(&Bits, reinterpret_cast<const char *>(&V) + Off, 8);
        A.movRegImm64(RAX, Bits);
        A.movMemReg64(R12, sOff(I.Dst, Off), RAX);
      }
    }
    storeTag(I.Dst, V.tag());
    resumeAfter(Slow);
  }

  /// Boxed Dst <- A: a bit copy of the 24 bytes. A copy (C = 0) adds a
  /// reference to A's heap object; a steal (C = 1) leaves A null instead.
  void emitBoxedMove(int32_t Pc, const LowInstr &I) {
    Stub Slow{Pc, Stub::StepSlow, {}, 0};
    testImmediateDst(I.Dst, Slow);
    if (!I.C) {
      // retainPayload: a heap tag (above Cplx, not Builtin) with an object.
      A.cmpMem8Imm8(R12, sOff(I.A, ValueLayout::Tag),
                    static_cast<uint8_t>(Tag::Cplx));
      size_t Scalar = A.jcc32(CcBe);
      A.cmpMem8Imm8(R12, sOff(I.A, ValueLayout::Tag),
                    static_cast<uint8_t>(Tag::Builtin));
      size_t Builtin = A.jcc32(CcE);
      A.movRegMem64(RAX, R12, sOff(I.A, ValueLayout::Payload));
      A.testRegReg64(RAX, RAX);
      size_t NoObj = A.jcc32(CcE);
      A.incMem32(RAX, ValueLayout::RefCount);
      for (size_t Site : {Scalar, Builtin, NoObj})
        A.patchRel32(Site, A.size());
    }
    emitSlotBits(I.Dst, I.A, /*Steal=*/I.C);
    resumeAfter(Slow);
  }

  /// Bit-copies boxed slot \p Src's 24 bytes to \p Dst with no refcount
  /// change; a steal leaves \p Src null.
  void emitSlotBits(uint16_t Dst, uint16_t Src, bool Steal) {
    for (int32_t Off = 0; Off < ValueStride; Off += 8) {
      A.movRegMem64(RAX, R12, sOff(Src, Off));
      A.movMemReg64(R12, sOff(Dst, Off), RAX);
    }
    if (Steal) {
      storeTag(Src, Tag::Null);
      A.movMem64Imm32(R12, sOff(Src, ValueLayout::Payload), 0);
    }
  }

  /// Boxed Dst <- Lgl(A op B) for a rank-1 or rank-2 compare.
  void emitCompare(int32_t Pc, const LowInstr &I) {
    Stub Slow{Pc, Stub::StepSlow, {}, 0};
    testImmediateDst(I.Dst, Slow);
    BinOp Op = arithOp(I);
    if (arithRank(I) == 1) {
      intCompare(I.A, I.B);
      A.setcc(intCc(Op), RAX);
    } else {
      A.setcc(realCompare(Op, I.A, I.B), RAX);
      if (Op == BinOp::Eq) { // and ordered
        A.setcc(CcNp, RDX);
        A.andRegReg8(RAX, RDX);
      } else if (Op == BinOp::Ne) { // or unordered
        A.setcc(CcP, RDX);
        A.orRegReg8(RAX, RDX);
      }
    }
    A.movzxRegReg8(RAX, RAX);
    A.movMemReg64(R12, sOff(I.Dst, ValueLayout::Payload), RAX);
    storeTag(I.Dst, Tag::Lgl);
    resumeAfter(Slow);
  }

  /// Raw-int Dst <- A %% B or A %/% B, floored as intArith does: idiv
  /// truncates, then a nonzero remainder whose sign differs from B's
  /// moves the result one step (R += B, Q -= 1). A divisor of 0 (an
  /// error) or -1 (INT_MIN would trap) takes the stub.
  void emitIntDivMod(int32_t Pc, const LowInstr &I) {
    Stub Slow{Pc, Stub::StepSlow, {}, 0};
    uint8_t B = intSrc(I.B, RSI); // never rax or rdx: homes avoid them
    A.cmpRegImm32(B, 0);
    Slow.Sites.push_back(A.jcc32(CcE));
    A.cmpRegImm32(B, static_cast<uint32_t>(-1));
    Slow.Sites.push_back(A.jcc32(CcE));
    uint8_t Ar = intSrc(I.A, RAX);
    if (Ar != RAX)
      A.movRegReg32(RAX, Ar);
    A.cdq();
    A.idivReg32(B);
    A.testRegReg32(RDX, RDX);
    size_t Exact = A.jcc32(CcE);
    bool Mod = arithOp(I) == BinOp::Mod;
    // The remainder has A's sign; the xor is negative when B's differs.
    if (Mod) {
      A.movRegReg32(RAX, RDX); // the quotient is dead; B may be in rsi
      A.xorRegReg32(RAX, B);
    } else {
      A.xorRegReg32(RDX, B);
    }
    size_t SameSign = A.jcc32(CcNs);
    if (Mod)
      A.addRegReg32(RDX, B);
    else
      A.subRegImm32(RAX, 1);
    A.patchRel32(Exact, A.size());
    A.patchRel32(SameSign, A.size());
    intStore(I.Dst, Mod ? RDX : RAX);
    resumeAfter(Slow);
  }

  //===-- Compares --------------------------------------------------------//

  /// Signed-integer condition code for a compare operator.
  static Cc intCc(BinOp Op) {
    switch (Op) {
    case BinOp::Eq:
      return CcE;
    case BinOp::Ne:
      return CcNe;
    case BinOp::Lt:
      return CcL;
    case BinOp::Le:
      return CcLe;
    case BinOp::Gt:
      return CcG;
    default:
      return CcGe;
    }
  }

  /// Sets the flags of raw-int `A - B`.
  void intCompare(uint16_t ASlot, uint16_t BSlot) {
    uint8_t Ar = intSrc(ASlot, RAX);
    int16_t BH = RA.intHome(BSlot);
    if (BH >= 0)
      A.cmpRegReg32(Ar, static_cast<uint8_t>(BH));
    else if (IC.known(BSlot))
      A.cmpRegImm32(Ar, static_cast<uint32_t>(IC.val(BSlot)));
    else
      A.cmpRegMem32(Ar, R14, iOff(BSlot));
  }

  void ucomisdRhs(uint8_t X, uint16_t BSlot) {
    int16_t H = RA.realHome(BSlot);
    if (H >= 0)
      A.ucomisdXmmXmm(X, static_cast<uint8_t>(H));
    else
      A.ucomisdXmmMem(X, R13, dOff(BSlot));
  }

  /// Sets the flags of raw-real `A op B` and returns the code that holds
  /// when the compare is true and the operands are ordered. NaN
  /// discipline: C++'s `a < b` is false when unordered. After `ucomisd x,
  /// m` the unordered case sets CF (and PF), so the above-style codes
  /// returned for <, <=, >, >= never hold on NaN and their ccNot twins
  /// (CF-based) always do — exactly the C++ negation. Lt/Le compare with
  /// the operands swapped (a<b == b>a) so the above-style codes apply in
  /// every direction. For Eq/Ne (CcE/CcNe) the caller folds in parity
  /// itself: unordered sets ZF too. ucomisd never writes its first
  /// operand, so a home may be compared in place.
  Cc realCompare(BinOp Op, uint16_t ASlot, uint16_t BSlot) {
    bool Swap = Op == BinOp::Lt || Op == BinOp::Le;
    uint8_t X = realSrc(Swap ? BSlot : ASlot, 0);
    ucomisdRhs(X, Swap ? ASlot : BSlot);
    switch (Op) {
    case BinOp::Eq:
      return CcE;
    case BinOp::Ne:
      return CcNe;
    case BinOp::Lt:
    case BinOp::Gt:
      return CcA;
    default:
      return CcAe;
    }
  }

  /// A rank-1 or rank-2 compare-and-branch (callsHelper takes complex).
  void emitCmpBranch(const LowInstr &I) {
    bool Sense = cmpBranchSense(I);
    BinOp Op = arithOp(I);
    if (arithRank(I) == 1) {
      intCompare(I.A, I.B);
      Cc C = intCc(Op);
      PcFix.push_back({A.jcc32(Sense ? C : ccNot(C)), I.Imm});
      return;
    }
    Cc C = realCompare(Op, I.A, I.B);
    if (Op == BinOp::Eq || Op == BinOp::Ne) {
      if ((Op == BinOp::Eq) == Sense) {
        // Taken iff ordered-equal: parity (unordered) skips.
        size_t Skip = A.jcc32(CcP);
        PcFix.push_back({A.jcc32(CcE), I.Imm});
        A.patchRel32(Skip, A.size());
      } else {
        // Taken iff not ordered-equal: != or unordered.
        PcFix.push_back({A.jcc32(CcNe), I.Imm});
        PcFix.push_back({A.jcc32(CcP), I.Imm});
      }
      return;
    }
    PcFix.push_back({A.jcc32(Sense ? C : ccNot(C)), I.Imm});
  }

  /// Typed element load: inline fast path for the real/int *vector* case
  /// (tag test, storage pointers, unsigned bounds check, indexed load);
  /// everything else — the widened length-one-scalar case, out-of-bounds
  /// errors — takes the out-of-line interpreter handler, which re-executes
  /// the op from scratch. Complex and logical kinds never get here
  /// (inlineExtract).
  void emitExtract2Typed(int32_t Pc, const LowInstr &I) {
    Tag K = elemKind(I);
    ElemLayout L = elemLayout(K);
    Stub Slow{Pc, Stub::StepSlow, {}, 0};
    const PinInfo *P = pinFor(Pc, I.A, K);
    if (P) {
      // Pinned: the loop header already verified the tag and hoisted the
      // element pointer; what remains is the bounds check against the
      // PinLen cell and the load itself. A disabled pin (cell = 0) sends
      // every execution to the stub, which re-runs the op generically.
      emitZeroBasedIndex(I.B);
      A.cmpMemReg64(RBX, pinLenOff(P->Cell), RSI); // flags: count - idx
      Slow.Sites.push_back(A.jcc32(CcBe)); // count <= idx (unsigned)
    } else {
      emitVectorIndex(I.A, I.B, L, Slow);
    }
    // The element goes straight to Dst's home, or through the scratch
    // register to its slot.
    uint8_t Base = P ? P->Gpr : static_cast<uint8_t>(RAX);
    if (K == Tag::Real) {
      int16_t DH = RA.realHome(I.Dst);
      uint8_t X = DH >= 0 ? static_cast<uint8_t>(DH) : 0;
      A.movsdXmmMemIndex(X, Base, RSI, L.ScaleLog);
      if (DH < 0)
        realStore(I.Dst, 0);
    } else {
      int16_t DH = RA.intHome(I.Dst);
      uint8_t R = DH >= 0 ? static_cast<uint8_t>(DH)
                          : static_cast<uint8_t>(RAX);
      A.movRegMemIndex32(R, Base, RSI, L.ScaleLog);
      if (DH < 0)
        intStore(I.Dst, RAX);
    }
    resumeAfter(Slow);
  }

  /// Typed element store into a stolen real or int container. Inline when
  /// boxed slot A holds a vector of the kind that nothing else references,
  /// the index is within its length and, when the container moves to
  /// another slot, Dst holds an immediate: the element is stored in place
  /// and the container moves from A to Dst, leaving A null, as the
  /// interpreter's body leaves it. Everything else — a scalar or shared
  /// container, growth, an index error, a heap object in Dst — takes the
  /// stub, where the helper runs the runtime's store kernel (storeElem).
  void emitSetElem2Typed(int32_t Pc, const LowInstr &I) {
    ElemLayout L = elemLayout(elemKind(I));
    Stub Slow{Pc, Stub::StepSlow, {}, 0};
    if (I.Dst != I.A)
      testImmediateDst(I.Dst, Slow);
    emitVectorIndex(I.A, I.B, L, Slow, /*Unshared=*/true);
    if (elemKind(I) == Tag::Real)
      A.movsdMemIndexXmm(RAX, RSI, L.ScaleLog, realSrc(I.Imm, 0));
    else
      A.movMemIndexReg32(RAX, RSI, L.ScaleLog, intSrc(I.Imm, RDX));
    if (I.Dst != I.A)
      emitSlotBits(I.Dst, I.A, /*Steal=*/true);
    resumeAfter(Slow);
  }

  /// Raw-int Dst <- length(A): an int or real vector's element count
  /// inline, the stub for any other value.
  void emitLength(int32_t Pc, const LowInstr &I) {
    Stub Slow{Pc, Stub::StepSlow, {}, 0};
    ElemLayout Int = elemLayout(Tag::Int), Real = elemLayout(Tag::Real);
    A.cmpMem8Imm8(R12, sOff(I.A, ValueLayout::Tag),
                  static_cast<uint8_t>(Int.VecTag));
    size_t NotInt = A.jcc32(CcNe);
    A.movRegMem64(RAX, R12, sOff(I.A, ValueLayout::Payload));
    emitElemRange(Int, RAX);
    size_t Done = A.jmp32();
    A.patchRel32(NotInt, A.size());
    A.cmpMem8Imm8(R12, sOff(I.A, ValueLayout::Tag),
                  static_cast<uint8_t>(Real.VecTag));
    Slow.Sites.push_back(A.jcc32(CcNe));
    A.movRegMem64(RAX, R12, sOff(I.A, ValueLayout::Payload));
    emitElemRange(Real, RAX);
    A.patchRel32(Done, A.size());
    intStore(I.Dst, RDX);
    resumeAfter(Slow);
  }

  /// The checks before an inline element access of boxed slot \p VecSlot
  /// at the index in raw-int slot \p IdxSlot: a vector of \p L's kind
  /// (with \p Unshared, referenced by that slot alone) and an index
  /// within its length, each jumping to \p Slow when it fails. Leaves the
  /// element pointer in rax and the 0-based index in rsi.
  void emitVectorIndex(uint16_t VecSlot, uint16_t IdxSlot,
                       const ElemLayout &L, Stub &Slow,
                       bool Unshared = false) {
    A.cmpMem8Imm8(R12, sOff(VecSlot, ValueLayout::Tag),
                  static_cast<uint8_t>(L.VecTag));
    Slow.Sites.push_back(A.jcc32(CcNe));
    A.movRegMem64(RAX, R12, sOff(VecSlot, ValueLayout::Payload));
    if (Unshared) {
      A.cmpMem32Imm32(RAX, ValueLayout::RefCount, 1);
      Slow.Sites.push_back(A.jcc32(CcNe));
    }
    emitElemRange(L, RAX);
    emitZeroBasedIndex(IdxSlot);
    A.cmpRegReg64(RSI, RDX);
    Slow.Sites.push_back(A.jcc32(CcAe)); // unsigned: catches idx < 1 too
  }

  /// rsi <- the 1-based index in raw-int slot \p Slot, sign-extended and
  /// made 0-based.
  void emitZeroBasedIndex(uint16_t Slot) {
    int16_t H = RA.intHome(Slot);
    if (H >= 0)
      A.movsxdRegReg32(RSI, static_cast<uint8_t>(H));
    else
      A.movsxdRegMem32(RSI, R14, iOff(Slot));
    A.subRegImm8(RSI, 1);
  }

  void emitGuard(int32_t Pc, const LowInstr &I) {
    const DeoptMeta &M = F.Deopts[I.Imm];
    // AssumeChecks counts every execution, passing or failing — bump it
    // first, exactly like the interpreter. No lock prefix: the executor is
    // the counter's one writer, and readers on other threads read it only
    // across a barrier or join (README "Threading model").
    emitCount(Ctx.Stats.AssumeChecks);

    Stub Fail{Pc, Stub::GuardFail, {}, 0};
    switch (I.C) {
    case 0: // tag speculation
      A.cmpMem8Imm8(R12, sOff(I.A, ValueLayout::Tag),
                    static_cast<uint8_t>(M.ExpectedTag));
      Fail.Sites.push_back(A.jcc32(CcNe));
      break;
    case 1: // closure identity
      A.cmpMem8Imm8(R12, sOff(I.A, ValueLayout::Tag),
                    static_cast<uint8_t>(Tag::Clos));
      Fail.Sites.push_back(A.jcc32(CcNe));
      A.movRegMem64(RAX, R12, sOff(I.A, ValueLayout::Payload));
      A.movRegImm64(RDX, reinterpret_cast<uint64_t>(M.ExpectedFun));
      A.cmpMemReg64(RAX, static_cast<int32_t>(offsetof(ClosObj, Fn)),
                    RDX);
      Fail.Sites.push_back(A.jcc32(CcNe));
      break;
    default: // scalar-logical truth
      A.cmpMem8Imm8(R12, sOff(I.A, ValueLayout::Tag),
                    static_cast<uint8_t>(Tag::Lgl));
      Fail.Sites.push_back(A.jcc32(CcNe));
      A.cmpMem32Imm32(R12, sOff(I.A, ValueLayout::Payload), 0);
      Fail.Sites.push_back(A.jcc32(CcE));
      break;
    }
    Stubs.push_back(std::move(Fail));

    // Random-invalidation countdown (§5.1; every guard kind). The fast
    // path is one load + one compare when the mode is off.
    Stub Tick{Pc, Stub::GuardTick, {}, 0};
    A.movRegMem64(RAX, RBX, offsetof(NativeFrame, Ctx));
    A.cmpMem64Imm32(
        RAX,
        static_cast<int32_t>(offsetof(ExecContext, Low) +
                             offsetof(LowHooks, InvalidationCountdown)),
        0);
    Tick.Sites.push_back(A.jcc32(CcNe));
    Tick.Resume = A.size();
    Stubs.push_back(std::move(Tick));
  }

  /// The builtin watch's epoch against the one the code folded its
  /// builtins in: a load and a compare. A mismatch side-exits through the
  /// guard-failure stub (never injected, never counted as a check).
  void emitEpochCheck(int32_t Pc) {
    Stub Fail{Pc, Stub::GuardFail, {}, 0};
    A.movRegImm64(RAX, reinterpret_cast<uint64_t>(&Ctx.Watch.Epoch));
    A.movRegImm64(RDX, F.BuiltinEpoch);
    A.cmpMemReg64(RAX, 0, RDX);
    Fail.Sites.push_back(A.jcc32(CcNe));
    Stubs.push_back(std::move(Fail));
  }
};

//===----------------------------------------------------------------------===//
// Backend / executable
//===----------------------------------------------------------------------===//

class NativeExecutable final : public ExecutableCode {
public:
  NativeExecutable(std::unique_ptr<LowFunction> L, CodeArena &Arena,
                   const void *Entry)
      : ExecutableCode(std::move(L)), Arena(&Arena),
        Entry(reinterpret_cast<NativeEntry>(const_cast<void *>(Entry))) {}

  /// Reclaiming the executable returns its W^X pages. Safe wherever
  /// destroying the wrapper is safe (graveyard safepoint after the retire
  /// epoch drains, compile-race discard of never-published code, backend
  /// teardown) — the epoch protocol guarantees no activation is inside the
  /// block and no dispatch can re-read the entry. The arena strictly
  /// outlives its executables (Vm member order), and its mutex makes the
  /// compiler-thread discard path race-free against concurrent installs.
  ~NativeExecutable() override {
    Arena->release(reinterpret_cast<const void *>(Entry));
  }

  const char *backendName() const override { return "native-x64"; }

protected:
  Value invoke(std::vector<Value> &&Args, Env *CurEnv,
               Env *ParentEnv) override {
    const LowFunction &F = low();
    std::vector<Value> S(F.NumSlots);
    std::vector<double> D(F.NumSlotsD);
    std::vector<int32_t> Iv(F.NumSlotsI);
    spillLowArgs(F, std::move(Args), S.data(), D.data(), Iv.data());

    NativeFrame Fr;
    Fr.F = &F;
    Fr.S = S.data();
    Fr.D = D.data();
    Fr.Iv = Iv.data();
    Fr.CurEnv = CurEnv;
    Fr.ParentEnv = ParentEnv;
    Fr.ReadEnv = CurEnv ? CurEnv : ParentEnv;
    Fr.Ctx = &currentContext();

    Fr.Ctx->Stats.NativeEnters.bump();
    if (obs::traceOn())
      obs::traceEvent(obs::TraceEv::NativeEnter, 0, obsId());
    Entry(&Fr);
    if (Fr.Exc)
      std::rethrow_exception(Fr.Exc);
    return std::move(Fr.Result);
  }

private:
  CodeArena *Arena;
  NativeEntry Entry;
};

class NativeBackend final : public ExecBackend {
public:
  explicit NativeBackend(ExecContext &Ctx) : Ctx(Ctx) {}

  const char *name() const override { return "native-x64"; }

  std::unique_ptr<ExecutableCode>
  prepare(std::unique_ptr<LowFunction> Low) override {
    std::vector<uint8_t> Code;
    Stitcher St(*Low, Ctx);
    if (!St.compile(Code))
      return interpBackend().prepare(std::move(Low));
    const void *Entry = Arena.install(Code);
    if (!Entry) // mapping denied (hardened host): portable fallback
      return interpBackend().prepare(std::move(Low));
    ++Ctx.Stats.NativeCompiles;
    Ctx.Stats.NativeRegSpills += St.regSpills();
    return std::make_unique<NativeExecutable>(std::move(Low), Arena, Entry);
  }

  size_t liveCodeBlocks() const override { return Arena.blockCount(); }

private:
  /// The context compiles are charged to and guards count into.
  ExecContext &Ctx;
  CodeArena Arena;
};

} // namespace

bool rjit::nativeBackendSupported() {
  // One-time probe: emit, seal and execute a trivial function. Verifies
  // both the architecture (compile-time above) and that the host actually
  // permits RX mappings.
  static const bool Ok = [] {
    CodeArena Arena;
    X64Emitter E;
    E.movRegImm32(RAX, 42);
    E.ret();
    const void *P = Arena.install(E.Buf);
    if (!P)
      return false;
    using Probe = int (*)();
    return reinterpret_cast<Probe>(const_cast<void *>(P))() == 42;
  }();
  return Ok;
}

std::unique_ptr<ExecBackend>
rjit::makeNativeBackend(ExecContext *Ctx) {
  if (!nativeBackendSupported())
    return nullptr;
  return std::make_unique<NativeBackend>(contextOr(Ctx));
}

#else // !RJIT_NATIVE_X64

bool rjit::nativeBackendSupported() { return false; }

std::unique_ptr<rjit::ExecBackend>
rjit::makeNativeBackend(rjit::ExecContext *) {
  return nullptr;
}

#endif
