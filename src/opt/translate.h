//===-- opt/translate.h - Bytecode to IR translation -------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates baseline bytecode to optimizer IR by abstract interpretation
/// of the operand stack (Ř's rir2pir equivalent). Key properties the rest
/// of the system relies on:
///
///  * translation can start at any bytecode pc, pre-seeding the abstract
///    stack — this is how OSR-in and deoptless continuations are compiled
///    (paper §4.2: "the only difference is that we choose the current
///    program counter value as an entry point");
///  * speculation is inserted inline from type/call feedback: every Assume
///    refers to a Checkpoint carrying a FrameState that describes the
///    interpreter state at that pc (paper Listing 2);
///  * environments are elided for functions that provably keep their
///    locals private (no closures created, no read-first writes); locals
///    then live in SSA and only exist in FrameStates, to be materialized
///    on deoptimization (the deferred MkEnv of paper §4.1).
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OPT_TRANSLATE_H
#define RJIT_OPT_TRANSLATE_H

#include "bc/bytecode.h"
#include "ir/instr.h"

#include <memory>
#include <optional>
#include <vector>

namespace rjit {

/// Description of the entry state for continuation compilation.
struct EntryState {
  int32_t Pc = 0;
  /// Types of the operand-stack values at entry (bottom first).
  std::vector<RType> StackTypes;
  /// Deoptless only, aligned with StackTypes: BuiltinId + 1 where the
  /// continuation's dispatch proves the stack value is that builtin
  /// (DeoptContext::StackBuiltins), else 0. Translation uses the builtin
  /// constant there, so a builtin callee stays a direct call.
  std::vector<uint16_t> StackBuiltins;
  /// Types of the local bindings passed in (Deoptless) or loaded from the
  /// environment at entry (OsrIn).
  std::vector<std::pair<Symbol, RType>> EnvTypes;
  /// FullElided only: entry types of the parameters, aligned with
  /// Function::Params (missing/any entries stay unspecialized). Filled by
  /// contextual dispatch from a CallContext: the version dispatch check
  /// guarantees these at run time, so inference is seeded with them
  /// directly and no entry guard is emitted for such parameters.
  std::vector<RType> ParamTypes;
};

/// The one definition of "debug builds verify between passes": both
/// structs that carry the knob (Vm::Config and OptOptions, which every
/// compile entry point receives from Vm::optView) default from
/// this constant so the tiers cannot drift apart.
#ifndef NDEBUG
inline constexpr bool VerifyPassesDefault = true;
#else
inline constexpr bool VerifyPassesDefault = false;
#endif

class ExecBackend;
class ExecContext;

/// Translation/optimization knobs, shared verbatim by every compile entry
/// point (whole-function versions, OSR-in continuations, deoptless
/// continuations) so the tiers cannot drift apart; Vm::optView fills them
/// from Vm::Config.
struct OptOptions {
  bool Speculate = true; ///< insert Assume guards from feedback
  /// Speculative inlining (opt/inline): splice monomorphic hot callees
  /// into the caller under the callee-identity guard. The splice bounds
  /// are constants in opt/inline.h.
  bool Inline = false;
  /// The loop layer (opt/licm, opt/peel): loop peeling, LICM,
  /// loop-invariant guard hoisting and redundant-guard elimination.
  bool Loop = true;
  /// Run the IR verifier between every optimization pass (the invariant
  /// gate; structural breakage fails the compile at the pass that caused
  /// it instead of at the end — or never, when output happens to match).
  bool VerifyEachPass = VerifyPassesDefault;
  /// Execution backend the lowered code is prepared for (exec/backend.h);
  /// null means the interpreter backend. Carried here — not read from any
  /// thread-local — so background compile jobs prepare code for the Vm
  /// that enqueued them.
  ExecBackend *Backend = nullptr;
  /// The execution context (runtime/context.h) the compile's counters and
  /// latency are charged to: the requesting Vm's, set next to Backend for
  /// the same reason. Null means the calling thread's.
  ExecContext *Ctx = nullptr;
  /// The requester's builtin watch (runtime/context.h), copied on its
  /// executor when the compile is requested: the global builtins still
  /// bound under their names (one bit per BuiltinId), and the epoch that
  /// fact holds in. Speculating compiles fold those names to the builtins
  /// themselves. The default is a fresh Vm's watch (every builtin bound,
  /// epoch 0), for compiles outside a Vm; Vm::optView copies the live one.
  uint64_t IntactBuiltins = ~uint64_t(0);
  uint64_t BuiltinEpoch = 0;
};

/// Result of checking whether a function's environment can be elided.
bool envIsElidable(const Function &Fn);

/// Translates \p Fn to IR. \p Conv selects the calling convention; for
/// OsrIn/Deoptless the \p Entry state must describe pc/stack/locals.
/// Returns null when translation is not possible (e.g. a Deoptless
/// continuation for a function whose environment cannot be elided).
std::unique_ptr<IrCode> translate(Function *Fn, CallConv Conv,
                                  const EntryState &Entry,
                                  const OptOptions &Opts);

} // namespace rjit

#endif // RJIT_OPT_TRANSLATE_H
