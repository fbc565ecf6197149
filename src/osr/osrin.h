//===-- osr/osrin.h - OSR-in (tiering up) ------------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// OSR-in (paper §4.2): when a loop in the baseline interpreter becomes
/// hot, compile a continuation from the current bytecode pc — the
/// interpreter's operand stack values become call arguments — run it to
/// completion, and return its result as the activation's result. The next
/// invocation of the function is compiled from the beginning by the VM.
/// The VM's one hot-backedge hook requests the continuation from
/// compile/service, which publishes it into the function's OSR-in code
/// table (dispatch/table.h) under its exact (pc, entry signature) key.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OSR_OSRIN_H
#define RJIT_OSR_OSRIN_H

#include "exec/backend.h"
#include "obs/trace.h"
#include "opt/translate.h"
#include "runtime/env.h"

#include <memory>
#include <vector>

namespace rjit {

/// The exact entry state of a hot backedge: the interpreter's operand
/// stack and (for elidable environments) the current binding types. What
/// an OSR-in request compiles for, and its table key's source.
EntryState buildOsrEntryState(Function *Fn, Env *E,
                              const std::vector<Value> &Stack, int32_t Pc);

/// Bound on a function's OSR-in table: entry signatures per function.
inline constexpr uint32_t MaxOsrSignatures = 8;

/// The OSR-in table's key: a hot backedge's pc and the exact type
/// signature of its entry state (stack types, then (symbol, type)
/// bindings). Exact: its order is equality.
struct OsrKey {
  static constexpr CompileKind Kind = CompileKind::OsrIn;

  explicit OsrKey(const EntryState &Entry);

  int32_t Pc;
  std::vector<uint32_t> Sig;

  bool operator==(const OsrKey &O) const {
    return Pc == O.Pc && Sig == O.Sig;
  }
  bool operator<=(const OsrKey &O) const { return *this == O; }
  uint64_t hash() const;
  bool unbounded() const { return false; }
};

/// Enters compiled OSR-in code with the interpreter's live values (stack
/// first, then — for elided code — the environment bindings in the entry
/// order) and returns the activation's result.
Value enterOsrContinuation(ExecutableCode &Code, const EntryState &Entry,
                           Env *E, std::vector<Value> &Stack);

} // namespace rjit

#endif // RJIT_OSR_OSRIN_H
