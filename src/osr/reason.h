//===-- osr/reason.h - Deopt reasons & contexts ------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deoptimization context of paper Listing 7: the dispatch key for
/// deoptless continuations. A context captures the deopt target pc, an
/// abstract description of the reason (failed guard kind + offending
/// value), the types of the operand-stack entries and the names and types
/// of the environment bindings. Contexts are partially ordered; `A <= B`
/// means a continuation compiled for context B can be invoked from current
/// state A. Types compare with the scalar <= vector rule (R scalars are
/// length-one vectors).
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OSR_REASON_H
#define RJIT_OSR_REASON_H

#include "ir/type.h"
#include "lowcode/lowcode.h"
#include "obs/trace.h"

#include <string>

namespace rjit {

/// Run-time description of why a guard failed.
struct DeoptReasonRt {
  DeoptReasonKind Kind = DeoptReasonKind::Typecheck;
  int32_t ReasonPc = -1;        ///< bc pc of the speculated operation
  int32_t FailedSlot = -1;      ///< type-feedback slot of the failed guard
  Tag ActualTag = Tag::Null;    ///< observed tag (Typecheck)
  Function *ActualFn = nullptr; ///< observed callee (CallTarget)
};

/// Paper Listing 7 limits.
inline constexpr unsigned MaxCtxStack = 16;
inline constexpr unsigned MaxCtxEnv = 32;

/// Bound on a function's continuation table: the dispatch table of paper
/// §4.3 holds at most this many continuations.
inline constexpr uint32_t MaxContinuations = 5;

/// The deoptless optimization context, and the continuation table's key
/// (dispatch/table.h).
struct DeoptContext {
  static constexpr CompileKind Kind = CompileKind::Continuation;

  int32_t Pc = -1; ///< deopt target (resume pc)
  DeoptReasonRt Reason;
  uint16_t StackSize = 0;
  uint16_t EnvSize = 0;
  Tag StackTags[MaxCtxStack] = {};
  /// BuiltinId + 1 of each Builtin-tagged stack value, 0 for the others:
  /// a builtin callee waiting on the operand stack (the folded constant of
  /// the failing code) stays a direct call in the continuation.
  uint16_t StackBuiltins[MaxCtxStack] = {};
  std::pair<Symbol, Tag> EnvEntries[MaxCtxEnv] = {};

  /// Partial order: *this can invoke a continuation compiled for \p O.
  bool operator<=(const DeoptContext &O) const;
  /// Contexts that may run each other's continuations share one entry.
  bool operator==(const DeoptContext &O) const {
    return *this <= O && O <= *this;
  }
  uint64_t hash() const;
  bool unbounded() const { return false; }

  std::string str() const;
};

/// Scalar <= vector widening on single tags (Real <= RealVec, ...).
inline bool tagCompatible(Tag Cur, Tag Compiled) {
  return RType::of(Cur).subtypeOf(RType::of(Compiled));
}

} // namespace rjit

#endif // RJIT_OSR_REASON_H
