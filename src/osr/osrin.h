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
/// compile/service, which caches it by (pc, entry signature).
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OSR_OSRIN_H
#define RJIT_OSR_OSRIN_H

#include "exec/backend.h"
#include "opt/translate.h"
#include "runtime/env.h"

#include <memory>

namespace rjit {

/// The exact entry state of a hot backedge: the interpreter's operand
/// stack and (for elidable environments) the current binding types. What
/// an OSR-in request compiles for, and its cache key's source.
EntryState buildOsrEntryState(Function *Fn, Env *E,
                              const std::vector<Value> &Stack, int32_t Pc);

/// Compiles the OSR-in continuation for \p Entry (prepared for
/// Opts.Backend), or returns null when \p Fn cannot be compiled from that
/// state. The OSR-in request's job body, in either mode.
std::unique_ptr<ExecutableCode>
compileOsrInCode(Function *Fn, const EntryState &Entry,
                 const OptOptions &Opts);

/// Enters compiled OSR-in code with the interpreter's live values (stack
/// first, then — for elided code — the environment bindings in the entry
/// order) and returns the activation's result.
Value enterOsrContinuation(ExecutableCode &Code, const EntryState &Entry,
                           Env *E, std::vector<Value> &Stack);

} // namespace rjit

#endif // RJIT_OSR_OSRIN_H
