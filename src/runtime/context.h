//===-- runtime/context.h - One execution context per Vm --------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything an executor thread reaches through ambient state, in one
/// object (MPLX's JIT entry takes one too, `JitEntryPtr(void *vm_state)`):
/// the interpreters' hooks, the retire epochs, the cycle-collector heap,
/// and the Vm's counters and histograms. Each Vm owns one and installs it
/// on its thread for its lifetime (ContextScope); code reaches it through
/// currentContext().
///
/// Threads without a Vm (compiler threads, Vm-less unit tests) see one
/// process-wide default context with no hooks, heap or retire epochs;
/// several of them at once write only its relaxed counters and
/// histograms. Compile work is charged to the requesting Vm: compile entry
/// points take its context from OptOptions::Ctx, pool jobs from
/// CompileKey::Owner.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_RUNTIME_CONTEXT_H
#define RJIT_RUNTIME_CONTEXT_H

#include "obs/metrics.h"
#include "runtime/gcheap.h"
#include "support/interner.h"
#include "support/rng.h"
#include "support/stats.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace rjit {

class ClosObj;
class Env;
class Function;
class Value;
class Vm;
struct LowFunction;
struct SlotView;

/// Callbacks the VM layer installs to drive tiering from the baseline
/// interpreter (bc/interp.h), keeping that library independent of the JIT.
struct InterpHooks {
  /// Invoked for every closure call; the VM dispatches to an optimized
  /// version or back into the interpreter. Null means: always baseline.
  Value (*CallClosure)(ClosObj *Clos, std::vector<Value> &&Args) = nullptr;

  /// Invoked when a loop backedge becomes hot (paper Listing 5). If it
  /// returns true, \p Result is the value of the rest of the activation
  /// (the OSR-in continuation ran to completion) and the interpreter
  /// returns it immediately.
  bool (*OsrIn)(Function *Fn, Env *E, std::vector<Value> &Stack, int32_t Pc,
                Value &Result) = nullptr;

  /// Backedge count after which OsrIn fires.
  uint32_t OsrThreshold = 200;
};

/// Hooks the OSR/VM layers install into the LowCode engines
/// (lowcode/exec.h and the native tier).
struct LowHooks {
  /// Deoptimization handler: consumes the live slots and the guard's
  /// DeoptMeta; returns the result of the rest of the activation.
  /// \p Injected marks test-mode failures whose guarded fact still holds.
  Value (*Deopt)(const LowFunction &F, const SlotView &Slots,
                 int32_t MetaIdx, Env *CurEnv, Env *ParentEnv,
                 bool Injected) = nullptr;

  /// Random invalidation: one in N guard checks fails spuriously (0=off).
  /// Implemented as a pre-drawn countdown so the per-check cost is a
  /// decrement (a per-check RNG draw would tax exactly the guard-carrying
  /// code whose behaviour the experiment measures).
  uint64_t InvalidationRate = 0;
  uint64_t InvalidationCountdown = 0;
  Rng TestRng{12345};

  /// Draws the next inter-failure distance (mean = InvalidationRate).
  void rearmInvalidation() {
    InvalidationCountdown =
        InvalidationRate ? 1 + TestRng.below(2 * InvalidationRate) : 0;
  }
};

/// Builtin bindings as watched global assumptions (Ř's builtin
/// watchpoint). Optimized code folds a global builtin's name to the
/// builtin itself and guards nothing per call; instead, every overwrite of
/// a global binding that holds a builtin bumps Epoch (Env's store path
/// tests for it in O(1) and calls Rebind), which retires the code that
/// folded builtins, and running activations of that code compare Epoch
/// after each closure call and each of their own environment stores.
struct BuiltinWatch {
  /// Written by the executor only; read by its optimized code (natively
  /// with a plain load) and by compiler threads when they publish.
  std::atomic<uint64_t> Epoch{0};
  /// Bit b is set while the global binding named builtinName(b) holds
  /// builtin b. Executor-only; compile requests copy it
  /// (OptOptions::IntactBuiltins), so compiler threads never read the
  /// global environment.
  uint64_t Intact = ~uint64_t(0);
  /// The Vm's handler, called before a global binding holding a builtin
  /// (or receiving one) is overwritten. Null without a Vm.
  void (*Rebind)(Symbol S, const Value &Old, const Value &New) = nullptr;
};

/// Per-executor retire epochs for safepoint reclamation of retired code
/// (FliT's deferred reclamation: free once no reader can hold the object).
/// The Vm stamps each graveyard entry with the epoch of its retire; every
/// ExecutableCode activation pins the epoch at its entry (CodeActivation,
/// exec/backend.h). An entry retired before every live activation entered
/// can be running in no frame, so the safepoint may free it. Activations
/// nest on the one executor thread, so the minimum live entry epoch is the
/// outermost activation's: a depth plus one saved epoch suffice.
class RetireEpochs {
public:
  /// Stamps a retire: the epoch charged to the graveyard entry, then the
  /// clock advances so later activations provably postdate the retire.
  uint64_t stampRetire() { return Epoch++; }

  /// Smallest entry epoch among live code activations, or UINT64_MAX when
  /// none is live (everything retired so far is reclaimable).
  uint64_t minLiveEntry() const {
    return Depth ? OuterEpoch : UINT64_MAX;
  }

private:
  friend class CodeActivation;
  uint64_t Epoch = 1;
  uint32_t Depth = 0;      ///< live ExecutableCode activations (nested)
  uint64_t OuterEpoch = 0; ///< entry epoch of the outermost live one
};

/// One executor's state. Owned by its Vm (or by a test scope that runs
/// code without one); touched by compiler threads only through the
/// relaxed Stats and Metrics.
class ExecContext {
public:
  /// An executor context: it owns a heap and retire epochs.
  explicit ExecContext(Vm *Owner = nullptr) : ExecContext(Owner, true) {}
  ExecContext(const ExecContext &) = delete;
  ExecContext &operator=(const ExecContext &) = delete;

  /// The Vm this context belongs to (Vm::current()); null for the process
  /// default and for Vm-less test scopes.
  Vm *const Owner;

  InterpHooks Interp;
  LowHooks Low;
  BuiltinWatch Watch;

  /// This executor's counters and histograms: stats() and obs::metrics()
  /// on its thread. A Vm's start at zero because the Vm does.
  VmStats Stats;
  obs::VmMetrics Metrics;

  /// The cycle-collector registry this thread's Env/ClosObj/ListObj
  /// allocations enroll in; null in the process default, so compiler
  /// threads never enroll (the pinning rule of runtime/gcheap.h).
  GcHeap *heap() { return Executor ? &Heap : nullptr; }
  /// The retire-epoch tracker code activations pin; null in the process
  /// default, whose threads never retire code.
  RetireEpochs *epochs() { return Executor ? &Epochs : nullptr; }

private:
  friend ExecContext &currentContext();
  ExecContext(Vm *Owner, bool Executor) : Owner(Owner), Executor(Executor) {}

  const bool Executor;
  GcHeap Heap;
  RetireEpochs Epochs;
};

/// The calling thread's context: the installed one, else the process
/// default.
ExecContext &currentContext();

/// \p C when set, else the calling thread's context — how compile sites
/// resolve OptOptions::Ctx and CompileKey::Owner.
inline ExecContext &contextOr(ExecContext *C) {
  return C ? *C : currentContext();
}

/// Installs \p C as the calling thread's context for the scope's lifetime.
/// One per thread at a time: one active Vm per executor thread.
class ContextScope {
public:
  explicit ContextScope(ExecContext &C);
  ~ContextScope();
  ContextScope(const ContextScope &) = delete;
  ContextScope &operator=(const ContextScope &) = delete;
};

} // namespace rjit

#endif // RJIT_RUNTIME_CONTEXT_H
