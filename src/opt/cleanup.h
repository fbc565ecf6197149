//===-- opt/cleanup.h - Feedback cleanup & inference -------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deoptless feedback cleanup and inference pass (paper §4.3,
/// "Incomplete Profile Data"). With deoptless there is no interpreter run
/// between the failing assumption and recompilation, so the recorded
/// profile is partially stale. This pass produces a repaired copy of a
/// function's feedback table:
///
///  1. the slot whose speculation failed is reset to the actually observed
///     tag (injection of the deoptimization reason);
///  2. every type slot tied to a variable captured by the deopt context is
///     checked against the variable's current tag; contradicting profiles
///     are replaced by the observed tag;
///  3. a failed call-target guard makes its call site megamorphic, and
///     every other call that reads its callee from the same variable
///     (the variable was rebound, so they all profiled the old closure);
///  4. remaining inference happens structurally: the optimizer's optimistic
///     type inference (opt/inference) fills in downstream types from the
///     repaired entry types, subsuming an explicit feedback-flow pass.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OPT_CLEANUP_H
#define RJIT_OPT_CLEANUP_H

#include "bc/bytecode.h"
#include "ir/instr.h"

#include <vector>

namespace rjit {

/// The information about a deopt event the cleanup pass consumes.
struct DeoptSnapshot {
  int32_t Pc = -1;                ///< bytecode pc of the deopt point
  DeoptReasonKind Kind = DeoptReasonKind::Typecheck;
  int32_t FailedSlot = -1;        ///< type-feedback slot of the failed guard
  Tag ActualTag = Tag::Null;      ///< observed tag (Typecheck/Injected)
  /// Current tags of the locals captured in the deopt context.
  std::vector<std::pair<Symbol, Tag>> EnvTags;
};

/// Returns a repaired copy of \p Fn's feedback for compiling a deoptless
/// continuation. With \p Enabled false, returns a verbatim copy (the
/// ablation toggle for the benchmarks).
FeedbackTable cleanupFeedback(const Function &Fn, const DeoptSnapshot &S,
                              bool Enabled = true);

} // namespace rjit

#endif // RJIT_OPT_CLEANUP_H
