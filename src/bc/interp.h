//===-- bc/interp.h - Baseline bytecode interpreter --------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiling baseline interpreter: the lower tier of the two-tier
/// architecture. It records type/call/branch feedback on every execution,
/// counts loop backedges to trigger OSR-in, and supports resuming at an
/// arbitrary pc with a given operand stack — the entry point used by
/// OSR-out (deoptimization, paper Listing 4).
///
/// Tier-up decisions live in the VM layer and reach the interpreter through
/// the InterpHooks of the thread's execution context (runtime/context.h),
/// keeping this library independent of the JIT.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_BC_INTERP_H
#define RJIT_BC_INTERP_H

#include "bc/bytecode.h"
#include "runtime/context.h"
#include "runtime/env.h"

#include <vector>

namespace rjit {

/// Executes \p Fn from the beginning in environment \p E.
Value interpret(Function *Fn, Env *E);

/// Resumes \p Fn at bytecode \p Pc with operand stack \p Stack — the
/// deoptimization entry point.
Value interpretResume(Function *Fn, Env *E, std::vector<Value> &&Stack,
                      int32_t Pc);

/// Raises the RError of a call of \p Fn with \p NumArgs arguments when
/// the counts differ.
void checkArity(const Function *Fn, size_t NumArgs);

/// The environment a call of \p Clos runs in: a fresh child of its
/// enclosing environment binding \p Args to the parameters. \p Hold
/// keeps it alive for the call, however the call exits.
Env *bindCallEnv(ClosObj *Clos, std::vector<Value> &&Args, Value &Hold);

/// Default closure invocation: bind parameters, interpret the body.
/// Raises RError on arity mismatch.
Value callClosureBaseline(ClosObj *Clos, std::vector<Value> &&Args);

/// Invokes any callable value (closure via hooks, builtin directly).
Value callValue(const Value &Callee, std::vector<Value> &&Args);

} // namespace rjit

#endif // RJIT_BC_INTERP_H
