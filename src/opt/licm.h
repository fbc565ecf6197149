//===-- opt/licm.h - Loop optimization layer ---------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The loop optimization layer: loop-invariant code motion, loop-invariant
/// *guard* hoisting, and redundant-guard elimination, over the natural
/// loops of ir/cfg.
///
/// LICM moves pure instructions into the loop preheader when every
/// operand is defined outside the loop. Instructions that cannot raise
/// (typed arithmetic, numeric coercions, length, guard predicates) move
/// from anywhere; pure-but-faulting ones (integer %% and %/%, int-range
/// `:`) move only from blocks guaranteed to execute on every loop entry —
/// otherwise a zero-trip entry would observe an error the original
/// program never raises.
///
/// Guard hoisting is the speculative core: an Assume whose condition is
/// loop-invariant (a type, callee-identity or builtin guard on a value
/// defined outside the loop) moves to the preheader, *re-anchored* to the
/// loop-header entry state — the translator's anchor checkpoint, with
/// every header phi mapped to its preheader incoming value. A hoisted
/// guard that fails therefore deopts before the loop: the interpreter
/// resumes at the header pc with the pre-loop values and re-executes the
/// loop test, so zero-trip loops and skipped-effect ordering stay correct.
/// Anchor framestates keep their parent chain, so a guard hoisted out of a
/// loop inside an inlined callee still materializes every caller frame on
/// OSR-out (composes with the multi-frame deopt metadata).
///
/// Redundant-guard elimination removes an Assume dominated by an
/// equivalent Assume (same predicate, same guarded value modulo CastType
/// refinements, same expectation): if the dominating guard passes, the
/// dominated one cannot fail.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OPT_LICM_H
#define RJIT_OPT_LICM_H

#include "opt/translate.h"

namespace rjit {

/// What the loop layer did to one IrCode (feeds the VmStats counters).
struct LoopOptStats {
  uint32_t HoistedInstrs = 0;    ///< pure instructions moved to preheaders
  uint32_t HoistedGuards = 0;    ///< Assumes moved + re-anchored
  uint32_t EliminatedGuards = 0; ///< Assumes dominated by an equivalent
};

/// Runs the loop optimization layer over \p C. Synthesizes preheaders as
/// needed, processes loops innermost-first (an instruction hoisted into an
/// inner preheader can be hoisted again out of the enclosing loop), and
/// clears every translator anchor flag so later DCE sweeps unconsumed
/// anchors.
LoopOptStats runLoopOpts(IrCode &C);

} // namespace rjit

#endif // RJIT_OPT_LICM_H
