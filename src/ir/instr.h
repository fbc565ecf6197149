//===-- ir/instr.h - Optimizer IR --------------------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimizing compiler's IR: a CFG of instructions in SSA form, with
/// speculation as first-class instructions exactly as in Ř (paper §4.1):
///
///  * \c FrameState captures the bytecode-level execution state (pc,
///    operand stack entries, environment bindings) needed to exit;
///  * \c Checkpoint anchors a FrameState as a potential OSR exit point;
///  * \c Assume guards a condition against a Checkpoint — failing guards
///    transfer to the deopt runtime (or, with deoptless, to a dispatched
///    specialized continuation).
///
/// Speculative inlining links FrameStates into *chains*: a framestate of
/// an inlined callee carries (as its last operand) the caller's
/// return-framestate — the state with which the caller resumes once the
/// callee's frame completes. OSR-out walks the chain outward and
/// materializes one interpreter frame per link.
///
/// Instructions are a single class discriminated by IrOp with per-op
/// auxiliary fields; functions here are small enough that simplicity wins
/// over a class hierarchy.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_IR_INSTR_H
#define RJIT_IR_INSTR_H

#include "bc/bytecode.h"
#include "ir/type.h"
#include "runtime/builtins.h"

#include <memory>
#include <string>
#include <vector>

namespace rjit {

class BB;
struct IrCode;

/// Why a guard can fail; recorded in the Assume and later in the
/// DeoptContext ("typecheck failed, actual type was ..." — paper §3.1).
enum class DeoptReasonKind : uint8_t {
  Typecheck,    ///< a value's dynamic tag differed from the speculation
  CallTarget,   ///< a call site bound to a different closure
  BuiltinEpoch, ///< a global builtin binding was overwritten (EpochCheckIr)
  Injected,     ///< test-mode random invalidation (§5.1 methodology)
};

const char *deoptReasonName(DeoptReasonKind K);

enum class IrOp : uint8_t {
  // Values.
  Const,     ///< constant pool value (Cst field)
  Param,     ///< incoming parameter (Idx field)
  Phi,       ///< SSA merge; Incoming parallel to Ops
  Undef,     ///< maybe-unbound local (reads behave like NULL)
  CoerceNum, ///< Knd target; numeric scalar coercion (Int->Real, ...)
  // Environment access (functions whose environment cannot be elided, and
  // free-variable reads in elided functions).
  LdVarEnv,        ///< Sym field; reads through the env chain
  StVarEnv,        ///< Sym; Ops = [value]
  StVarSuperEnv,   ///< Sym; Ops = [value]; <<-
  MkClosureIr,     ///< Idx into Origin->InnerFns; captures the env
  // Calls.
  CallVal,          ///< Ops = [callee, args...]; full dynamic call
  CallBuiltinKnown, ///< Bid field; Ops = args
  CallStatic,       ///< Target field (Function*); Ops = args
  // Arithmetic & logic.
  BinGen,    ///< Bop; Ops = [a, b]; full R dispatch
  BinTyped,  ///< Bop + Knd (operand kind); Ops = [a, b]; unboxed scalars
  NegGen,    ///< Ops = [a]
  NotGen,    ///< Ops = [a]
  AsCond,    ///< Ops = [a]; coerces to scalar logical
  // Vector access.
  Extract2Gen,   ///< Ops = [obj, idx]
  Extract1Gen,   ///< Ops = [obj, idx]
  Extract2Typed, ///< Knd element kind; Ops = [obj, idx(int scalar)]
  SetIdx2Env,    ///< Sym; Ops = [idx, val]; env-resident container
  SetElem2Gen,   ///< Ops = [obj, idx, val]; yields the updated container
  SetElem2Typed, ///< Knd; Ops = [obj, idx, val]; typed updated container
  LengthIr,      ///< Ops = [v]; integer length
  CastType,      ///< Ops = [v]; static refinement after an Assume
  // Guard conditions.
  IsTagIr,     ///< TagArg; Ops = [v]; also true for scalar of a vector tag
  IsFunIr,     ///< Target; Ops = [v]; closure identity test
  // Speculation machinery.
  FrameStateIr, ///< BcPc, StackCount, EnvSyms; Ops = [stack..., env...]
  CheckpointIr, ///< Ops = [framestate]
  AssumeIr,     ///< Ops = [cond, checkpoint]; RKind/ExpectedTag/ReasonPc
  /// Ops = [checkpoint]; deopts when a global builtin binding was
  /// overwritten since the compile (IrCode::FoldsBuiltins). Not a guard:
  /// never hoisted, merged or injected.
  EpochCheckIr,
  // Control flow (block terminators).
  Jump,     ///< to BB succ 0
  BranchIr, ///< Ops = [cond]; succ 0 = true, succ 1 = false
  Ret,      ///< Ops = [v]
};

const char *irOpName(IrOp Op);

/// True when the op must stay even if its value is unused.
bool hasSideEffects(IrOp Op);

/// One IR instruction.
class Instr {
public:
  Instr(IrOp Op, RType T) : Op(Op), Type(T) {}

  IrOp Op;
  RType Type;
  std::vector<Instr *> Ops;

  // Auxiliary payloads (meaning depends on Op).
  Value Cst;                      ///< Const
  Symbol Sym = NoSymbol;          ///< env ops
  BinOp Bop = BinOp::Add;         ///< BinGen/BinTyped
  Tag Knd = Tag::Real;            ///< typed ops: scalar element kind
  Tag TagArg = Tag::Real;         ///< IsTagIr / Assume expectation
  BuiltinId Bid{};                ///< builtin ops
  Function *Target = nullptr;     ///< CallStatic / IsFunIr; FrameState:
                                  ///< the frame's function (null = Origin)
  int32_t Idx = 0;                ///< Param index / MkClosure inner index
  int32_t BcPc = -1;              ///< FrameState pc; Assume ReasonPc
  uint32_t StackCount = 0;        ///< FrameState: #stack operands
  std::vector<Symbol> EnvSyms;    ///< FrameState: env entry names
  /// FrameState of an inlined callee: the last operand is the caller's
  /// return-framestate (the frame-state chain of speculative inlining).
  bool HasParentFs = false;
  /// Loop-header anchor (CheckpointIr only): emitted by the translator at
  /// the top of every loop header so the loop optimizer can re-anchor
  /// hoisted guards to the header-entry state. Anchored checkpoints are
  /// sweepDead roots until opt/licm consumes and clears them.
  bool Anchor = false;
  DeoptReasonKind RKind = DeoptReasonKind::Typecheck; ///< Assume
  std::vector<BB *> Incoming;     ///< Phi: predecessor blocks
  uint32_t Id = 0;                ///< stable printing id
  BB *Parent = nullptr;

  bool isTerminator() const {
    return Op == IrOp::Jump || Op == IrOp::BranchIr || Op == IrOp::Ret;
  }

  /// Operand accessor with bounds assert.
  Instr *op(size_t I) const {
    assert(I < Ops.size() && "operand index out of range");
    return Ops[I];
  }

  /// FrameState helpers.
  Instr *stackOp(size_t I) const {
    assert(Op == IrOp::FrameStateIr && I < StackCount);
    return Ops[I];
  }
  Instr *envOp(size_t I) const {
    assert(Op == IrOp::FrameStateIr && I < EnvSyms.size());
    return Ops[StackCount + I];
  }
  /// The caller's return-framestate when this frame is inlined, else null.
  Instr *parentFs() const {
    assert(Op == IrOp::FrameStateIr);
    return HasParentFs ? Ops.back() : nullptr;
  }
};

/// A basic block: instruction sequence ending in a terminator.
class BB {
public:
  explicit BB(uint32_t Id) : Id(Id) {}

  uint32_t Id;
  std::vector<std::unique_ptr<Instr>> Instrs;
  std::vector<BB *> Preds;
  BB *Succs[2] = {nullptr, nullptr};

  Instr *append(std::unique_ptr<Instr> I) {
    I->Parent = this;
    Instrs.push_back(std::move(I));
    return Instrs.back().get();
  }
  Instr *terminator() const {
    return Instrs.empty() ? nullptr : Instrs.back().get();
  }
  bool terminated() const {
    Instr *T = terminator();
    return T && T->isTerminator();
  }
  void setSuccs(BB *S0, BB *S1 = nullptr) {
    Succs[0] = S0;
    Succs[1] = S1;
    if (S0)
      S0->Preds.push_back(this);
    if (S1)
      S1->Preds.push_back(this);
  }
};

/// How a compiled IR body is entered at run time.
enum class CallConv : uint8_t {
  FullEnv,    ///< whole function; runtime creates the env, binds params
  FullElided, ///< whole function; arguments arrive as IR Params
  OsrIn,      ///< continuation from the interpreter: real env + stack params
  Deoptless,  ///< continuation from a deopt: stack + locals as raw params
};

/// A function (or continuation) body in optimizer IR.
struct IrCode {
  Function *Origin = nullptr; ///< the bytecode function this derives from
  int32_t EntryPc = 0;        ///< bytecode pc this code starts at
  CallConv Conv = CallConv::FullEnv;
  bool UsesRealEnv = false;   ///< environment ops target a live Env object
  /// Some global builtin's name was folded to the builtin (opt/translate),
  /// under the builtin watch's epoch BuiltinEpoch (OptOptions).
  bool FoldsBuiltins = false;
  uint64_t BuiltinEpoch = 0;

  std::vector<std::unique_ptr<BB>> Blocks;
  BB *Entry = nullptr;
  std::vector<Instr *> Params;

  /// Deoptless conv: names of the locals passed after the stack params.
  std::vector<Symbol> EnvParamSyms;
  /// Number of leading stack-value params (OsrIn / Deoptless).
  uint32_t NumStackParams = 0;

  uint32_t NextInstrId = 0;
  uint32_t NextBlockId = 0;

  BB *newBlock() {
    Blocks.push_back(std::make_unique<BB>(NextBlockId++));
    return Blocks.back().get();
  }

  std::unique_ptr<Instr> make(IrOp Op, RType T) {
    auto I = std::make_unique<Instr>(Op, T);
    I->Id = NextInstrId++;
    return I;
  }

  /// Walks every instruction (blocks in creation order).
  template <typename Fn> void eachInstr(Fn F) {
    for (auto &B : Blocks)
      for (auto &I : B->Instrs)
        F(I.get());
  }

  /// Rewrites every use of \p From to \p To (operands and framestates).
  void replaceAllUses(Instr *From, Instr *To);

  /// Removes the CFG edge \p Pred -> \p Succ, fixing \p Succ's pred list
  /// and dropping the corresponding phi operands.
  static void removeEdge(BB *Pred, BB *Succ);

  /// Removes instructions not reachable from effectful roots, unreferenced
  /// checkpoints/framestates, and unreachable blocks. Returns true if
  /// anything changed.
  bool sweepDead();

  /// Blocks in reverse-post-order from Entry.
  std::vector<BB *> rpo() const;
};

/// Renders the IR as text.
std::string print(const IrCode &C);

/// Structural sanity checks (operand counts, terminator placement, phi
/// arity, framestate shape). Returns an empty string when valid.
std::string verify(const IrCode &C);

} // namespace rjit

#endif // RJIT_IR_INSTR_H
