//===-- exec/backend.h - Pluggable execution backends ------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-backend seam: optimized code is lowered to LowCode (the
/// portable description carrying the deopt metadata) and then *prepared*
/// by a backend into an ExecutableCode — the unit every code-table entry
/// (dispatch/table.h: versions, OSR-in and deoptless continuations) stores
/// and every dispatch point invokes. Two backends exist:
///
///  * the threaded-interpreter backend (always available, portable):
///    prepare() is a thin wrapper and run() is runLow();
///  * the x86-64 template JIT (src/native/): prepare() stitches per-LowOp
///    machine-code templates into a W^X code cache; guards become a test
///    plus a side-exit stub that materializes the live-slot map and calls
///    the same DeoptMeta-indexed hook, so true deopt, deoptless dispatch
///    and multi-frame OSR-out work unchanged from native frames.
///
/// Backends must be callable from compiler threads (prepare) while
/// executors run previously prepared code (run); prepare() never fails —
/// a backend that cannot improve on interpretation returns an
/// interpreter-equivalent executable.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_EXEC_BACKEND_H
#define RJIT_EXEC_BACKEND_H

#include "lowcode/lowcode.h"
#include "runtime/context.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace rjit {

class Env;
class Function;
struct CallContext;
template <typename Key> struct CodeEntry;
/// A whole-function version: the code-table entry of a call context.
using FnVersion = CodeEntry<CallContext>;

/// RAII pin for one ExecutableCode activation in the executor's retire
/// epochs (RetireEpochs, runtime/context.h): ExecutableCode::run takes it
/// so every publication point's code — function versions, OSR-in
/// continuations, deoptless continuations — participates in the epoch
/// protocol without per-call-site cooperation. Unwinds correctly when an
/// RError or a parked JIT exception propagates out of the activation.
/// In the process default context (backend unit tests running
/// executables directly) there are no epochs and the pin is a no-op:
/// nothing is ever graveyarded there.
class CodeActivation {
public:
  CodeActivation() : T(currentContext().epochs()) {
    if (T && T->Depth++ == 0)
      T->OuterEpoch = T->Epoch;
  }
  ~CodeActivation() {
    if (T)
      --T->Depth;
  }
  CodeActivation(const CodeActivation &) = delete;
  CodeActivation &operator=(const CodeActivation &) = delete;

private:
  RetireEpochs *T;
};

/// A backend-produced executable unit. Owns the LowFunction it was
/// prepared from: the deopt runtime, the code tables and the printers
/// all keep speaking LowCode — low() is the stable identity every
/// "which code does this guard belong to" lookup uses.
class ExecutableCode {
public:
  virtual ~ExecutableCode() = default;
  ExecutableCode(const ExecutableCode &) = delete;
  ExecutableCode &operator=(const ExecutableCode &) = delete;

  /// The portable description (slots, instructions, DeoptMetas).
  const LowFunction &low() const { return *Low; }
  LowFunction *lowPtr() const { return Low.get(); }

  /// Runs the executable; the contract of runLow(): \p Args fill the
  /// parameter slots, \p CurEnv is the live environment for real-env
  /// code (null for elided conventions), \p ParentEnv the lexical parent.
  /// Non-virtual on purpose: every call site — version dispatch, OSR-in,
  /// deoptless continuations — pins the activation in the executor's
  /// retire-epoch tracker for exactly the duration of the run, which is
  /// the invariant the graveyard safepoint relies on.
  Value run(std::vector<Value> &&Args, Env *CurEnv, Env *ParentEnv) {
    CodeActivation Pin;
    return invoke(std::move(Args), CurEnv, ParentEnv);
  }

  /// Name of the backend that produced this code ("interp", "native-x64").
  virtual const char *backendName() const = 0;

  /// Observability identity: the ObsId of the code-table entry this code
  /// was published into. Set at publication; the retire and reclaim trace
  /// events carry it, so they attribute the executable to its entry after
  /// the entry has let go of it.
  uint64_t obsId() const { return ObsId; }
  void setObsId(uint64_t Id) { ObsId = Id; }

protected:
  explicit ExecutableCode(std::unique_ptr<LowFunction> L)
      : Low(std::move(L)) {}

  /// Backend-specific execution, called with the activation already
  /// pinned by run().
  virtual Value invoke(std::vector<Value> &&Args, Env *CurEnv,
                       Env *ParentEnv) = 0;

private:
  std::unique_ptr<LowFunction> Low;
  uint64_t ObsId = 0;
};

/// A code-producing execution tier. prepare() is called on whatever thread
/// compiled the LowCode (the executor in synchronous mode, a compiler
/// thread when the Vm has a pool) and must be internally thread-safe;
/// the returned executable may then be invoked from any executor thread
/// that observes its publication.
class ExecBackend {
public:
  virtual ~ExecBackend() = default;

  virtual const char *name() const = 0;

  /// Wraps \p Low into an executable. Never returns null.
  virtual std::unique_ptr<ExecutableCode>
  prepare(std::unique_ptr<LowFunction> Low) = 0;

  /// Diagnostic: code mappings currently live in this backend (W^X blocks
  /// for the native tier, 0 for backends without their own mappings).
  /// The reopt-storm soak test uses it to prove reclaimed native code
  /// actually returns its pages, not just its ExecutableCode wrapper.
  virtual size_t liveCodeBlocks() const { return 0; }
};

/// The interpreter backend (stateless process-wide singleton).
ExecBackend &interpBackend();

/// Resolves a possibly-null backend pointer (configs default to null =
/// interpreter) to a usable backend.
inline ExecBackend &backendOr(ExecBackend *B) {
  return B ? *B : interpBackend();
}

/// Convenience used by every compile site: lower + prepare in one step.
std::unique_ptr<ExecutableCode> prepareExecutable(ExecBackend *Backend,
                                                  std::unique_ptr<LowFunction> Low);

} // namespace rjit

#endif // RJIT_EXEC_BACKEND_H
