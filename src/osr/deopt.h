//===-- osr/deopt.h - The deopt primitive (OSR-out) --------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deopt primitive of paper Listing 4: invoked (conceptually
/// tail-called) by optimized code when a guard fails, through the Vm's
/// deopt handler (which tries deoptless first, paper Listing 6). It
/// extracts the interpreter-level state from the DeoptMeta, materializes
/// the environment (the deferred MkEnv), pushes the operand stack, and
/// resumes the baseline interpreter at the deopt pc. Raw frame-state
/// values are boxed here, as they are read (SlotView::get).
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OSR_DEOPT_H
#define RJIT_OSR_DEOPT_H

#include "lowcode/exec.h"

namespace rjit {

/// Performs a true deoptimization (no deoptless): materializes the state
/// and resumes the interpreter. With speculative inlining this rebuilds
/// the *whole* frame chain — the innermost (callee) frame first, then one
/// synthesized interpreter frame per inlined caller, each resuming just
/// past its call with the inner frame's result pushed.
Value deoptToBaseline(const LowFunction &F, const SlotView &Slots,
                      const DeoptMeta &Meta, Env *CurEnv, Env *ParentEnv);

/// Unwinds the synthesized caller frames of an inlined guard: for each
/// entry of Meta.Callers (innermost caller first) materializes the frame
/// from the live \p Slots, pushes \p Inner (the completed inner frame's
/// value) onto its operand stack and resumes the interpreter one pc past
/// the call. \p CurEnv, if non-null, is the live environment of the
/// outermost frame. Returns the outermost frame's result (or \p Inner
/// when there are no caller frames). Shared by OSR-out and the deoptless
/// runtime (which handles the innermost frame with a continuation).
Value resumeInlinedCallers(const LowFunction &F, const SlotView &Slots,
                           const DeoptMeta &Meta, Env *CurEnv,
                           Env *ParentEnv, Value Inner);

} // namespace rjit

#endif // RJIT_OSR_DEOPT_H
