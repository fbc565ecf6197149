//===-- lowcode/exec.h - LowCode execution engine ----------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes LowCode. Guard failures tail-call the deopt handler installed
/// in the thread's execution context (LowHooks, runtime/context.h), which
/// returns the result of the remainder of the activation — exactly the
/// paper's Listing 3/4 shape where the compiled code ends in
/// `return deopt(framestate, reason)`.
///
/// The engine also implements the random assumption-invalidation test mode
/// of §5.1: with a non-zero rate, one in N passing guards is treated as a
/// failure without the guarded fact being false.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_LOWCODE_EXEC_H
#define RJIT_LOWCODE_EXEC_H

#include "lowcode/lowcode.h"
#include "runtime/context.h"
#include "runtime/env.h"

#include <vector>

namespace rjit {

/// The slot arrays of an activation whose guard failed, as the deopt
/// runtime reads them through DeoptMeta's LiveRefs. get() is where a raw
/// frame-state value is boxed — on the failure path only; tag() answers
/// without boxing. Both backends keep every raw slot a LiveRef names
/// current in its array at the guard (the native side exit flushes its
/// register homes first).
struct SlotView {
  const Value *S;
  const double *D;
  const int32_t *Iv;

  Value get(LiveRef R) const {
    switch (R.K) {
    case SlotClass::RawReal:
      return Value::real(D[R.Slot]);
    case SlotClass::RawInt:
      return Value::integer(Iv[R.Slot]);
    default:
      return S[R.Slot];
    }
  }
  Tag tag(LiveRef R) const {
    switch (R.K) {
    case SlotClass::RawReal:
      return Tag::Real;
    case SlotClass::RawInt:
      return Tag::Int;
    default:
      return S[R.Slot].tag();
    }
  }
};

/// Runs \p F. \p Args fill slots [0, NumParams). \p CurEnv is the live
/// environment for real-env code (null for elided conventions); \p
/// ParentEnv is the lexical parent used for free-variable reads and
/// superassignment in elided code.
Value runLow(const LowFunction &F, std::vector<Value> &&Args, Env *CurEnv,
             Env *ParentEnv);

} // namespace rjit

#endif // RJIT_LOWCODE_EXEC_H
