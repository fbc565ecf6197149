//===-- opt/inline.h - Speculative inlining ----------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Feedback-driven speculative inlining: CallStatic sites (monomorphic
/// closure calls already guarded by a callee-identity Assume from
/// translation) are replaced by the callee's body, translated with the
/// caller's argument types seeding the callee parameters. Every framestate
/// of the spliced body is linked to a *return-framestate* of the caller —
/// the state (operand stack below the call, locals, pc after the call)
/// with which the caller resumes once the callee frame delivers a value —
/// so a guard failing inside the inlined body can materialize the whole
/// frame chain on OSR-out, or dispatch a deoptless continuation for the
/// innermost frame.
///
/// A callee is inlinable when its environment is elidable *and* its
/// translated body is environment-free (no free-variable reads, stores or
/// closure creation): the spliced code must not confuse the caller's
/// lexical environment with the callee's. Polymorphic call sites never
/// produce CallStatic and thus bail out naturally.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OPT_INLINE_H
#define RJIT_OPT_INLINE_H

#include "opt/translate.h"

namespace rjit {

/// Nesting bound: calls inside a body spliced this many levels deep stay
/// calls.
constexpr uint32_t MaxInlineDepth = 2;
/// Callee size bound, in bytecode instructions.
constexpr uint32_t MaxInlineSize = 48;
/// Loop peeling's body size bound (opt/peel), in IR instructions: like an
/// inlined callee, a peeled iteration is a copy of code.
constexpr uint32_t MaxPeelSize = 96;

/// Inlines eligible CallStatic sites in \p C (recursively, up to
/// MaxInlineDepth / MaxInlineSize). Returns the number of calls inlined.
/// No-op unless Opts.Inline is set.
uint32_t inlineCalls(IrCode &C, const OptOptions &Opts);

} // namespace rjit

#endif // RJIT_OPT_INLINE_H
