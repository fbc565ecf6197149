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
//===----------------------------------------------------------------------===//

#ifndef RJIT_LOWCODE_LOWCODE_H
#define RJIT_LOWCODE_LOWCODE_H

#include "ir/instr.h"

#include <memory>
#include <string>
#include <vector>

namespace rjit {

/// Where a value lives at run time. Values with a statically precise
/// scalar type are *unboxed* into raw arrays — the optimization whose loss
/// after an over-generalizing recompile the paper's figures measure.
enum class SlotClass : uint8_t { Boxed, RawReal, RawInt };

enum class LowOp : uint8_t {
  LoadConst,   ///< Dst <- Consts[Imm]; B = SlotClass of Dst
  Move,        ///< Dst <- A; B = SlotClass; C=1 (boxed only) moves the
               ///< value out of A, set on a phi edge move that is A's
               ///< last use (A is dead past the edge)
  Box,         ///< S[Dst] <- raw A; C = SlotClass of A
  Unbox,       ///< raw Dst <- S[A]; C = SlotClass of Dst
  Coerce,      ///< Dst <- A coerced to scalar kind (C & 0xFF as Tag);
               ///< C >> 8 = SlotClass of the source
  LdEnv,       ///< Dst <- lookup(sym Imm) through the read env chain
  StEnv,       ///< env[sym Imm] <- A (needs a real environment)
  StEnvSuper,  ///< <<- semantics starting at the parent environment
  MkClosLow,   ///< Dst <- closure(InnerFns[Imm], current env)
  CallValLow,  ///< Dst <- call A with args in slots [B, B+Imm)
  CallBiLow,   ///< Dst <- builtin C with args in slots [B, B+Imm)
  CallStaticLow, ///< Dst <- call closure in A (guarded identity), args [B, B+Imm)
  ArithTyped,  ///< Dst <- A op B; C packs (BinOp << 4 | kind rank)
  BinGenLow,   ///< Dst <- generic binary; C = BinOp
  NegLow,      ///< Dst <- -A (generic)
  NotLow,      ///< Dst <- !A (generic)
  AsCondLow,   ///< Dst <- scalar logical of A
  Extract2Low, ///< Dst <- A[[B]] (generic)
  Extract1Low, ///< Dst <- A[B] (generic)
  Extract2Typed, ///< Dst <- raw element A[[B]]; C = element kind (Tag)
  SetElem2Low,   ///< Dst <- A with [[B]] <- slot Imm (generic); C bit
                 ///< 0x100 steals A (the store is A's last use), so an
                 ///< unshared vector is written in place
  SetElem2Typed, ///< same, typed; C & 0xFF = element kind (Tag), C bit
                 ///< 0x100 steals A as above, Imm = value slot
  SetIdx2EnvLow, ///< env var sym(Imm2): [[A]] <- B; Dst <- B
  SetIdx1EnvLow,
  LengthLow,   ///< Dst <- length(A) as Int
  GuardCond,   ///< deopt via Deopts[Imm] when slot A is FALSE
  JumpLow,     ///< pc <- Imm
  BranchFalseLow, ///< pc <- Imm when slot A is falsy
  BranchTrueLow,  ///< pc <- Imm when slot A is truthy
  CmpBranch,   ///< fused typed compare + branch; C packs (BinOp<<2|kind),
               ///< bit 15 = branch on true; Imm = target
  RetLow,      ///< return A
};

const char *lowOpName(LowOp Op);

/// A frame-state value named by deopt metadata: the slot that holds it and
/// the class of that slot (slot numbers are per-class namespaces). Raw
/// values are referenced where they live and boxed by the deopt runtime
/// only once a guard has failed (see SlotView in lowcode/exec.h), so
/// optimized code does no work for a frame state on the passing path.
struct LiveRef {
  uint16_t Slot;
  SlotClass K;
};

/// One LowCode instruction. C carries small payloads (packed op/kind,
/// builtin id, tag); Imm carries jump targets / counts / meta indices;
/// Imm2 is the second immediate for env-indexed stores.
struct LowInstr {
  LowOp Op;
  uint16_t Dst = 0;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  int32_t Imm = 0;
  int32_t Imm2 = 0;
};

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
  BuiltinId ExpectedBuiltin{};
  bool HasExpectedBuiltin = false;
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
};

/// Renders LowCode as text (tests, debugging).
std::string printLow(const LowFunction &F);

} // namespace rjit

#endif // RJIT_LOWCODE_LOWCODE_H
