//===-- lowcode/lowcode.h - Low-level code format ----------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LowCode is this reproduction's substitute for Ř's LLVM backend: a
/// compact register (slot) machine the optimizer IR is lowered to, with
/// the properties the paper's experiments depend on:
///
///  * slots are direct-indexed (no name lookup, no feedback recording),
///    typed operations use unchecked scalar accessors and raw vector
///    storage — the optimized tier is far faster than the baseline
///    interpreter;
///  * every speculation compiles to an explicit guard instruction carrying
///    a DeoptMeta index, the moral equivalent of Ř's explicit call to the
///    deopt primitive (paper Listing 3): the metadata maps live slots back
///    to the bytecode-level FrameState, naming raw values in place so a
///    passing guard costs only its test;
///  * guard failures invoke an installed hook — the deopt runtime decides
///    between true deoptimization and deoptless dispatch.
///
/// The instruction set is declared once, in lowcode/ops.def: each op's
/// mnemonic and, for each operand field, whether it is a slot the op reads
/// or writes and where that slot's class comes from. The enum, the names,
/// isBranch and forEachUse/forEachDef derive from it, so the interpreter,
/// the native stitcher and its register allocator share one statement of
/// what every op reads and writes.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_LOWCODE_LOWCODE_H
#define RJIT_LOWCODE_LOWCODE_H

#include "ir/instr.h"
#include "support/stats.h"

#include <memory>
#include <string>
#include <vector>

namespace rjit {

/// Where a value lives at run time. Values with a statically precise
/// scalar type are *unboxed* into raw arrays — the optimization whose loss
/// after an over-generalizing recompile the paper's figures measure.
enum class SlotClass : uint8_t { Boxed, RawReal, RawInt };

/// The instruction set, declared once in lowcode/ops.def.
enum class LowOp : uint8_t {
#define LOW_OP(Name, ...) Name,
#include "lowcode/ops.def"
};

/// A slot named by an instruction operand or by deopt metadata: the slot
/// and the class of that slot (slot numbers are per-class namespaces).
/// Deopt metadata references raw frame-state values where they live; the
/// deopt runtime boxes them only once a guard has failed (see SlotView in
/// lowcode/exec.h), so optimized code does no work for a frame state on
/// the passing path.
struct LiveRef {
  uint16_t Slot;
  SlotClass K;
};

/// One LowCode instruction. C carries small payloads (a slot class, a
/// builtin id, or one of the packed fields below); Imm carries jump
/// targets, counts, slots and meta indices; Imm2 is the symbol of an
/// env-indexed store.
struct LowInstr {
  LowOp Op;
  uint16_t Dst = 0;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  int32_t Imm = 0;
  int32_t Imm2 = 0;
};

//===-- Packed C fields: one encoder and one decoder each -----------------===//

/// ArithTyped: C = BinOp << 2 | kind rank (0 Lgl, 1 Int, 2 Real, 3 Cplx).
constexpr uint16_t packArith(BinOp Op, int Rank) {
  return static_cast<uint16_t>(static_cast<unsigned>(Op) << 2 | Rank);
}
/// CmpBranch: ArithTyped's field plus the branch sense in bit 15.
constexpr uint16_t packCmpBranch(uint16_t Arith, bool SenseTrue) {
  return static_cast<uint16_t>(Arith | (SenseTrue ? 0x8000u : 0u));
}
inline BinOp arithOp(const LowInstr &I) {
  return static_cast<BinOp>((I.C & 0x7FFF) >> 2);
}
inline int arithRank(const LowInstr &I) { return I.C & 3; }
inline bool cmpBranchSense(const LowInstr &I) { return I.C & 0x8000; }

/// Coerce: C = target kind | source SlotClass << 8.
constexpr uint16_t packCoerce(Tag Target, SlotClass Src) {
  return static_cast<uint16_t>(static_cast<unsigned>(Target) |
                               static_cast<unsigned>(Src) << 8);
}
inline Tag coerceTarget(const LowInstr &I) {
  return static_cast<Tag>(I.C & 0xFF);
}
inline SlotClass coerceSrcClass(const LowInstr &I) {
  return static_cast<SlotClass>(I.C >> 8);
}

/// Extract2Typed and SetElem2*: C = element kind | steal bit 0x100 (an
/// element store that moves its container out of A).
constexpr uint16_t packElem(Tag Kind, bool Steal = false) {
  return static_cast<uint16_t>(static_cast<unsigned>(Kind) |
                               (Steal ? 0x100u : 0u));
}
inline Tag elemKind(const LowInstr &I) { return static_cast<Tag>(I.C & 0xFF); }
inline bool stealsContainer(const LowInstr &I) { return I.C & 0x100; }

/// GuardCond: C is the guard kind (0 tag, 1 closure identity, 3 logical
/// truth). Every kind is a per-execution check, so the random-invalidation
/// test mode (§5.1) can strike any of them. Builtin stability is no guard:
/// as in Ř, it is a global assumption the builtin watch invalidates
/// (runtime/context.h), checked only by EpochCheck after calls and
/// environment stores, which the test mode never strikes.

/// The slot class of a rank's raw operands: Int and Real ranks are raw.
inline SlotClass rankClass(int Rank) {
  return Rank == 1   ? SlotClass::RawInt
         : Rank == 2 ? SlotClass::RawReal
                     : SlotClass::Boxed;
}
/// The slot class of an element kind: Int and Real elements are raw.
inline SlotClass kindClass(Tag Kind) {
  return Kind == Tag::Int    ? SlotClass::RawInt
         : Kind == Tag::Real ? SlotClass::RawReal
                             : SlotClass::Boxed;
}

//===-- The ops.def table and what derives from it ------------------------===//

/// The vocabulary of ops.def's operand columns (see its header).
namespace lowop {
enum ClassFrom : uint8_t {
  Boxed,
  RawInt,
  InB,
  InC,
  CoerceSrc,
  ElemKind,
  Rank,
  ArgWindow
};
enum Role : uint8_t { NotSlot, Use, Def, Target };
struct Operand {
  Role R;
  ClassFrom K;
};
constexpr Operand No{NotSlot, Boxed};
constexpr Operand Pc{Target, Boxed};
constexpr Operand use(ClassFrom K) { return {Use, K}; }
constexpr Operand def(ClassFrom K) { return {Def, K}; }

struct Info {
  const char *Mnemonic;
  Operand Dst, A, B, Imm;
};
inline constexpr Info Table[] = {
#define LOW_OP(Name, Mnemonic, Dst, A, B, Imm) {Mnemonic, Dst, A, B, Imm},
#include "lowcode/ops.def"
};

inline const Info &info(LowOp Op) { return Table[static_cast<uint8_t>(Op)]; }

/// The class of the slot that operand \p O of \p I names.
inline SlotClass classOf(const LowInstr &I, Operand O) {
  switch (O.K) {
  case Boxed:
  case ArgWindow:
    return SlotClass::Boxed;
  case RawInt:
    return SlotClass::RawInt;
  case InB:
    return static_cast<SlotClass>(I.B);
  case InC:
    return static_cast<SlotClass>(I.C);
  case CoerceSrc:
    return coerceSrcClass(I);
  case ElemKind:
    return kindClass(elemKind(I));
  case Rank:
    return O.R == Def && isComparison(arithOp(I)) ? SlotClass::Boxed
                                                  : rankClass(arithRank(I));
  }
  return SlotClass::Boxed;
}

template <typename Fn> void forEachSlot(const LowInstr &I, Role R, Fn &&Visit) {
  const Info &In = info(I.Op);
  auto One = [&](Operand O, int32_t Slot) {
    if (O.R != R)
      return;
    if (O.K == ArgWindow) {
      for (int32_t K = 0; K < I.Imm; ++K)
        Visit(LiveRef{static_cast<uint16_t>(Slot + K), SlotClass::Boxed});
      return;
    }
    Visit(LiveRef{static_cast<uint16_t>(Slot), classOf(I, O)});
  };
  One(In.Dst, I.Dst);
  One(In.A, I.A);
  One(In.B, I.B);
  One(In.Imm, I.Imm);
}
} // namespace lowop

constexpr size_t NumLowOps = sizeof(lowop::Table) / sizeof(lowop::Table[0]);
static_assert(NumLowOps <= VmStats::MaxLowOps,
              "VmStats keeps one helper-call cell per LowOp");

/// The op's mnemonic, as printLow prints it.
inline const char *lowOpName(LowOp Op) { return lowop::info(Op).Mnemonic; }

/// True for ops whose Imm is a branch target (jumps and branches).
inline bool isBranch(LowOp Op) {
  return lowop::info(Op).Imm.R == lowop::Target;
}

/// Calls \p Visit with a LiveRef for every slot \p I reads.
template <typename Fn> void forEachUse(const LowInstr &I, Fn &&Visit) {
  lowop::forEachSlot(I, lowop::Use, Visit);
}

/// Calls \p Visit with a LiveRef for every slot \p I writes.
template <typename Fn> void forEachDef(const LowInstr &I, Fn &&Visit) {
  lowop::forEachSlot(I, lowop::Def, Visit);
}

/// One synthesized interpreter frame of a caller whose call was inlined:
/// the compiled form of a return-framestate in the frame-state chain. On
/// OSR-out the runtime pushes the inner frame's result onto this frame's
/// operand stack and resumes its function's bytecode at BcPc.
struct DeoptFrame {
  Function *Fn = nullptr; ///< the frame's function (null = code's Origin)
  int32_t BcPc = -1;      ///< resume pc (the instruction after the call)
  std::vector<LiveRef> StackSlots;
  std::vector<std::pair<Symbol, LiveRef>> EnvSlots;
};

/// Deopt metadata: how to reconstruct the interpreter state at a guard
/// (the compiled form of a Checkpoint/FrameState pair). With speculative
/// inlining a guard may sit inside an inlined callee; the innermost frame
/// is described by the direct fields and the synthesized caller frames by
/// \c Callers (innermost caller first, outermost last).
///
/// Every frame-state value (operand stack and captured locals, in every
/// frame) is a LiveRef into whichever slot array holds it; only the
/// guarded value (ValueSlot) is always boxed — a guard exists precisely
/// because its operand's type is not statically known.
struct DeoptMeta {
  int32_t BcPc = -1; ///< resume pc (innermost frame)
  std::vector<LiveRef> StackSlots;
  std::vector<std::pair<Symbol, LiveRef>> EnvSlots;
  /// Innermost frame's function when the guard is inside an inlined
  /// callee; null means the code's Origin (no inlining at this guard).
  Function *FrameFn = nullptr;
  /// Synthesized interpreter frames of the inlined callers, innermost
  /// caller first. Empty for non-inlined guards.
  std::vector<DeoptFrame> Callers;
  // Reason description (from the Assume).
  DeoptReasonKind RKind = DeoptReasonKind::Typecheck;
  Tag ExpectedTag = Tag::Null;
  Function *ExpectedFun = nullptr;
  int32_t ReasonPc = -1;       ///< bytecode pc of the speculated operation
  int32_t FailedFeedbackSlot = -1;
  uint16_t ValueSlot = 0;      ///< slot of the guarded value (actual value)
  bool HasValueSlot = false;
};

/// A compiled function or continuation.
struct LowFunction {
  Function *Origin = nullptr;
  CallConv Conv = CallConv::FullEnv;
  bool NeedsEnv = false; ///< runs against a real environment object
  int32_t EntryPc = 0;   ///< bytecode pc this code corresponds to

  uint32_t NumSlots = 0;  ///< boxed (Value) slots
  uint32_t NumSlotsD = 0; ///< raw double slots
  uint32_t NumSlotsI = 0; ///< raw int32 slots
  uint32_t NumParams = 0;
  /// Where each incoming argument is stored (class + index).
  std::vector<SlotClass> ParamClasses;
  std::vector<uint16_t> ParamSlots;
  std::vector<Symbol> EnvParamSyms; ///< names of the local-value params
  uint32_t NumStackParams = 0;      ///< leading stack-value params

  std::vector<LowInstr> Code;
  std::vector<Value> Consts;
  std::vector<DeoptMeta> Deopts;

  /// Number of guard instructions (code-size ablation metric).
  uint32_t GuardCount = 0;

  /// The code folded global builtins (IrCode::FoldsBuiltins) while the
  /// builtin watch read BuiltinEpoch: it is valid only at that epoch.
  bool FoldsBuiltins = false;
  uint64_t BuiltinEpoch = 0;
};

/// Renders LowCode as text (tests, debugging).
std::string printLow(const LowFunction &F);

} // namespace rjit

#endif // RJIT_LOWCODE_LOWCODE_H
