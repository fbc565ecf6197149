//===-- native/regalloc.h - Linear-scan raw-slot allocator -------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register allocation for the native tier's raw slot classes. LowCode's
/// raw int32/double slots are the unboxed values the fig kernels spend
/// their time in; a template alone stores every one of them to the slot
/// arrays between ops. This unit computes live ranges and use weights from
/// LowCode and assigns the hottest raw slots *whole-function register
/// homes* in deterministic linear-scan order.
///
/// Why whole-function homes rather than per-range interval sharing:
/// LowCode branches are arbitrary (a jump from outside a textual live
/// range can land inside it), so two slots may never time-share a
/// register without a dataflow-precise liveness analysis. A fixed home
/// makes the invariant pc-independent — "a homed slot's current value is
/// in its register at every instruction boundary" — which is exactly what
/// makes side exits and helper calls easy to keep sound: store homes to
/// the arrays before any code that reads them, reload after any code that
/// may write them. The stitcher stores only the homes its dirty-home
/// analysis says may differ from their arrays (native/jit.cpp). Deopt
/// reads raw frame-state values from the arrays (DeoptMeta names them by
/// slot and class), so a side-exit stub stores every dirty home before it
/// calls the deopt hook; because a home is never shared, the stored slot
/// holds exactly the value the guard's frame state names.
///
/// The linear-scan part is the *assignment order*: candidates are sorted
/// by descending use weight (uses × loop depth, backedge-interval
/// approximation) and granted registers from the class pools until a pool
/// runs dry; every denied candidate counts as a spill (its templates keep
/// their load/store-per-op behavior).
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_NATIVE_REGALLOC_H
#define RJIT_NATIVE_REGALLOC_H

#include "native/emitter.h"
#include "runtime/value.h"

#include <cstdint>
#include <vector>

namespace rjit {

struct LowFunction;

/// GPR pool for raw-int homes, callee-saved first so the hottest slots
/// survive helper calls for free. rbx/r12-r14 are the frame anchors,
/// rax/rdx/rsi stay template scratch. rcx and rdi join the pool last:
/// the stitcher never uses rcx as an inline scratch register, and only
/// touches rdi when marshalling helper arguments — every helper call
/// site stores the dirty caller-saved homes first and reloads them after
/// (or exits the activation), so homes in either are sound, just the most
/// expensive ones.
constexpr uint8_t NatGprPool[] = {RBP, R15, R8, R9, R10, R11, RCX, RDI};
constexpr size_t NatGprPoolSize = sizeof(NatGprPool);

/// XMM pool for raw-real homes; xmm0/xmm1 stay template scratch. All XMMs
/// are caller-saved in the SysV ABI, so every real home is reloaded from
/// memory after a helper call (and stored before it when dirty).
constexpr uint8_t NatXmmFirst = 2;
constexpr uint8_t NatXmmLast = 15;
constexpr size_t NatXmmPoolSize = NatXmmLast - NatXmmFirst + 1;

/// True when a GPR home survives a C call (SysV callee-saved).
inline bool natGprCalleeSaved(uint8_t R) { return R == RBP || R == R15; }

/// True for the ArithTyped forms the stitcher compiles inline with no
/// stub: rank-2 +,-,*,/ and rank-1 +,-,*. The stitcher also inlines
/// rank-1/2 compares (they write a boxed Lgl, so pinSafeOp keeps them out
/// of pinned loops) and rank-1 %% and %/%, each with a stub; those gain no
/// use weight here. ^ and complex arithmetic take the helper.
inline bool inlinedArith(BinOp Op, int Rank) {
  if (Rank == 2)
    return Op == BinOp::Add || Op == BinOp::Sub || Op == BinOp::Mul ||
           Op == BinOp::Div;
  if (Rank == 1)
    return Op == BinOp::Add || Op == BinOp::Sub || Op == BinOp::Mul;
  return false;
}

/// A loop-invariant vector pin: inside one backedge interval whose body
/// the stitcher compiles entirely inline, the typed-extract source in
/// boxed slot VecSlot cannot change identity — so its tag check and data
/// pointer hoist to the loop header. Gpr holds the element pointer for
/// the whole interval; the element count lives in NativeFrame::PinLen
/// [Cell] (one memory load per bounds check, off the dependency chain).
/// A pin register is never RBP: the indexed-load SIB encoding cannot use
/// it as a base.
struct PinInfo {
  uint16_t VecSlot; ///< boxed slot holding the vector
  uint8_t ElemTag;  ///< Tag::Real or Tag::Int, as uint8_t
  uint8_t Gpr;      ///< pool register pinned to the element pointer
  uint8_t Cell;     ///< NativeFrame::PinLen index for the element count
  int32_t HeaderPc; ///< loop header: hoist code precedes this pc's label
  int32_t EndPc;    ///< backedge pc (interval end, inclusive)
};

/// NativeFrame::PinLen capacity — and thus the per-function pin budget.
constexpr size_t NatMaxPins = 4;

/// The allocation result: a register home (or -1) per raw slot, plus the
/// spill count the NativeRegSpills counter reports.
struct RegAllocation {
  std::vector<int16_t> IntHome;  ///< per RawInt slot: GPR number or -1
  std::vector<int16_t> RealHome; ///< per RawReal slot: XMM number or -1
  std::vector<PinInfo> Pins;     ///< loop-invariant vector pins
  uint32_t Spills = 0; ///< candidates with uses that were denied a home
  bool UsesRbp = false; ///< prologue must push rbp (+ re-align rsp)

  int16_t intHome(uint16_t Slot) const {
    return Slot < IntHome.size() ? IntHome[Slot] : -1;
  }
  int16_t realHome(uint16_t Slot) const {
    return Slot < RealHome.size() ? RealHome[Slot] : -1;
  }
  bool any() const {
    for (int16_t H : IntHome)
      if (H >= 0)
        return true;
    for (int16_t H : RealHome)
      if (H >= 0)
        return true;
    return false;
  }
};

/// Compile-time-known raw-int slots. A slot qualifies when its only
/// definition in the whole function is one RawInt LoadConst that executes
/// before any branch (so it dominates every use), and the slot is not a
/// parameter. Definitions are the RawInt defs lowcode/ops.def declares
/// (forEachDef), so a def missing there would fold a slot that is written
/// again; lowcode_test's LowOpTable cases check the table. The stitcher
/// folds reads of such slots into immediates; the allocator skips them as
/// candidates — an immediate needs no home.
struct IntConstMap {
  std::vector<uint8_t> Known; ///< per RawInt slot: 1 = constant
  std::vector<int32_t> Val;   ///< the constant, valid where Known
  bool known(uint16_t Slot) const {
    return Slot < Known.size() && Known[Slot];
  }
  int32_t val(uint16_t Slot) const { return Val[Slot]; }
};

/// Computes the constant-int-slot map for \p F. Deterministic.
IntConstMap intConstSlots(const LowFunction &F);

/// Computes live ranges/weights over \p F's raw slots and assigns homes.
/// With \p AllowPins (the stitcher passes it only when the inline typed-
/// extract fast path is available) loop-invariant vector pins join the
/// GPR candidate ranking. Known-constant int slots (see intConstSlots)
/// are skipped as candidates. Deterministic: identical LowCode yields
/// identical allocations.
RegAllocation allocateRegisters(const LowFunction &F,
                                bool AllowPins = false);

} // namespace rjit

#endif // RJIT_NATIVE_REGALLOC_H
