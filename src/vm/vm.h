//===-- vm/vm.h - VM facade & tier manager -----------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public embedding API and the tier manager: function versions,
/// warmup thresholds, dispatch between baseline and optimized code, deopt
/// policies per strategy, and the experiment modes of the paper's
/// evaluation:
///
///  * \c Normal — classic speculation: a deopt retires the optimized
///    version, the baseline re-profiles, and the function is recompiled
///    (more generically) after re-warming. (Fig. 1)
///  * \c Deoptless — failing guards dispatch to specialized continuations;
///    the optimized version is retained. (Fig. 2)
///  * \c ProfileDrivenReopt — the DLS'20 comparator for Fig. 11: optimized
///    functions are periodically sampled in the baseline to refresh type
///    feedback, and recompiled when the profile changed.
///
/// One Vm is active per *executor thread* at a time: the Vm installs its
/// execution context (runtime/context.h) on the thread that builds it;
/// independent threads may each drive their own Vm, and a CompilerPool
/// may be shared between them. Every compile (whole-function, OSR-in,
/// deoptless continuation) is one request to compile/service, which runs
/// it now or — with Config::Pool, a pool the embedder owns — enqueues it
/// instead of pausing the executor; code appears via atomic publication
/// into the function's code tables (dispatch/table.h) and the executor
/// keeps running baseline code until it does. Retired code of every kind
/// leaves through one graveyard. drainCompiles() is the barrier that
/// recovers fully deterministic synchronous behavior.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_VM_VM_H
#define RJIT_VM_VM_H

#include "bc/compiler.h"
#include "compile/service.h"
#include "dispatch/table.h"
#include "exec/backend.h"
#include "lowcode/lowcode.h"
#include "obs/trace.h"
#include "osr/deoptless.h"
#include "runtime/context.h"
#include "runtime/env.h"

#include <memory>
#include <string>
#include <unordered_map>

namespace rjit {

/// The process-wide default for Vm::Config::NativeTier: true when the
/// RJIT_NATIVE_TIER environment variable is set to a non-zero value.
/// Lets CI (and users) run every existing test/bench under the native
/// backend without touching each Vm construction site.
bool nativeTierDefault();

enum class TierStrategy : uint8_t {
  BaselineOnly,      ///< never optimize (reference semantics)
  Normal,            ///< speculate; deopt retires the version (Fig. 1)
  Deoptless,         ///< dispatched OSR + specialized continuations (Fig. 2)
  ProfileDrivenReopt ///< sampling reoptimization comparator (Fig. 11)
};

/// Per-function tier bookkeeping: one code table (dispatch/table.h) per
/// kind of optimized code — versions keyed by call context, deoptless
/// continuations by deopt context and OSR-in continuations by exact (pc,
/// entry signature). All per-entry state (code, deopt counts, failure
/// mark, reopt sampling) lives in the entries; without contextual
/// dispatch the version table holds exactly the generic root version and
/// reproduces the seed's single-`Optimized`-pointer behavior.
struct TierState {
  CodeTable<CallContext> Versions{MaxVersions};
  CodeTable<DeoptContext> Continuations{MaxContinuations}; ///< paper §4.3
  CodeTable<OsrKey> Osr{MaxOsrSignatures};                 ///< paper §4.2
};

/// True deopts a version entry absorbs before it is failure-marked and its
/// function stays in the baseline (the count survives the Fig. 1
/// retire/recompile cycle; see CodeTable).
inline constexpr uint32_t DeoptBlacklist = 50;

class CompilerPool;

/// The embedding API.
class Vm {
public:
  /// Every settable value, with the reason it stays (README
  /// "Configuration" has the same list as a table): a paper ablation, a
  /// §5.1 protocol parameter, a fuzzer oracle, a measured effect or a
  /// deployment choice. The tier-up bounds are constants beside their keys
  /// (MaxVersions, MaxContinuations, MaxOsrSignatures, DeoptBlacklist).
  struct Config {
    /// Paper ablation: the experiment mode (Figs. 1, 2 and 11).
    TierStrategy Strategy = TierStrategy::Normal;
    /// §5.1 protocol parameters: closure calls before optimizing, and
    /// interpreter backedges before OSR-in (0 = never OSR-in).
    uint32_t CompileThreshold = 3;
    uint32_t OsrThreshold = 200;
    /// §5.1 protocol parameters: 1-in-N random guard failures and their
    /// seed (Fig. 6's misspeculation).
    uint64_t InvalidationRate = 0;
    uint64_t InvalidationSeed = 12345;
    /// Paper ablation: the §4.3 feedback cleanup pass.
    bool FeedbackCleanup = true;
    /// Paper ablation: insert Assume guards at all.
    bool Speculate = true;

    /// Paper ablation, orthogonal to Strategy: calls dispatch over a
    /// table of call-context-specialized versions instead of one generic
    /// optimized version. The fuzzer sweeps it.
    bool ContextDispatch = false;

    /// Paper ablation, orthogonal to Strategy: monomorphic hot callees
    /// recorded in CallFeedback are spliced into the caller under the
    /// callee-identity guard; guards inside the spliced body carry
    /// frame-state chains so OSR-out materializes every synthesized
    /// frame. The depth and size bounds are constants in opt/inline.h.
    /// Off by default: flipping the default moves every workload.
    bool Inlining = false;

    /// Measured effect (fig_licm) and fuzzer axis, orthogonal to
    /// Strategy: dominator/loop analysis drives LICM, loop-invariant guard
    /// hoisting (guards re-anchored to a preheader frame state, so a
    /// failure deopts *before* the loop) and redundant-guard elimination.
    bool LoopOpts = true;
    /// Correctness gate, not settable: the IR verifier runs between every
    /// optimization pass in debug builds (CI's sanitizer jobs), so
    /// structural breakage fails the compile at the offending pass.
    /// Named here because deoptbench reads it.
    static constexpr bool VerifyBetweenPasses = VerifyPassesDefault;

    /// Measured effect (fig_native) and fuzzer axis: optimized code is
    /// prepared by the x86-64 template JIT with register allocation
    /// (src/native/) instead of the threaded LowCode interpreter. On any
    /// other host, or when the backend cannot be constructed, the Vm keeps
    /// the interpreter backend, so this is always safe to set. Defaults
    /// from the RJIT_NATIVE_TIER environment variable (CI runs the full
    /// suite both ways); unset means off.
    bool NativeTier = nativeTierDefault();

    /// Fuzzer oracle, orthogonal to Strategy. Runtime values are
    /// refcounted, and refcounting cannot reclaim cycles: any closure
    /// defined inside a function is bound in the very Env it captures, so
    /// long-running traffic leaks an Env<->ClosObj pair per defining call.
    /// The dispatch-boundary safepoint runs a stop-the-world trial-deletion
    /// mark-sweep over the per-Vm registry of cycle-capable objects (Env,
    /// ClosObj, ListObj; see runtime/gcheap.h) once ThresholdBytes of
    /// value-heap allocation have accumulated since the last collection.
    /// Collection frees only unreachable objects, so transcripts are
    /// byte-identical with it on or off, or at a hair-trigger threshold
    /// (the fuzzer gates this). Enabled = false disables mid-run
    /// collection; teardown always runs a final pass, so no cycle outlives
    /// the Vm.
    struct HeapGcOptions {
      bool Enabled = true;
      uint64_t ThresholdBytes = 256 * 1024;
    } HeapGc;

    /// Measured effect (fig_asynccompile) and the concurrent fuzzer's
    /// mode: background compilation on this pool. Compile requests go to
    /// it; each job compiles from a feedback snapshot taken at enqueue
    /// time and publishes atomically, while the executor keeps running
    /// baseline code. Not owned: the pool must outlive the Vm, and may be
    /// shared with other Vms (one pool, N executor threads). A 0-thread
    /// pool is the deterministic test mode: jobs run only inside
    /// drainCompiles(). Null (the default) means synchronous,
    /// deterministic tier-up.
    CompilerPool *Pool = nullptr;

    /// Runtime event tracing (src/obs/): while enabled, every tier event
    /// (compiles, publications, deopts, deoptless dispatches, OSR
    /// transfers, native side exits) is recorded into per-thread ring
    /// buffers exportable as Chrome trace-event JSON. Enablement is
    /// refcounted process-wide, so concurrent Vms (and the bench harness
    /// holding its own ref) compose; with no enabled Vm the recording
    /// sites reduce to one relaxed load. The ring capacity is process-wide
    /// too: obs::traceBegin sets it.
    struct TraceOptions {
      /// Deployment, read by deoptbench. Defaults from the RJIT_TRACE
      /// environment variable.
      bool Enabled = obs::traceEnabledDefault();
    } Trace;

    /// The inlining switch, as deoptbench reads it.
    bool inlineView() const { return Inlining; }
  };

  explicit Vm(Config Cfg);
  Vm() : Vm(Config()) {}
  ~Vm();

  Vm(const Vm &) = delete;
  Vm &operator=(const Vm &) = delete;

  /// Parses, compiles and runs \p Source in the global environment;
  /// returns the value of the last statement. Raises RError for run-time
  /// errors; front-end problems are reported via the second overload.
  Value eval(const std::string &Source);

  /// Like eval() but reports front-end errors instead of aborting.
  /// Returns false and fills \p Error on parse/compile failure.
  bool eval(const std::string &Source, Value &Result, std::string &Error);

  Env *global() { return Global; }
  const Config &config() const { return Cfg; }

  /// Tier state of a function (creating it on first use). Executor-only:
  /// call it on the thread that built the Vm.
  TierState &stateFor(Function *Fn);

  /// Compiles the generic root version of \p Fn now (ignoring thresholds);
  /// returns the backend-prepared executable or null.
  ExecutableCode *compileFunction(Function *Fn);

  /// The execution backend optimized code is prepared for (never null:
  /// the interpreter backend when no native tier is active).
  ExecBackend *backend() { return ActiveBackend; }

  /// The optimizer view: the OptOptions every compile request (versions,
  /// OSR-in, deoptless continuations) runs under, preparing code for
  /// backend() and sending it to Config::Pool.
  OptOptions optView();

  /// Barrier: waits until every compile request this Vm enqueued has been
  /// compiled and published (with a 0-thread pool, runs them inline).
  /// No-op without a pool — synchronous tier-up never has anything in
  /// flight.
  void drainCompiles();

  /// Requests \p Count injected guard invalidations (§5.1 semantics: the
  /// guarded fact still holds, the failure is spurious). Callable from
  /// ANY thread — this is the rate-driven storm-injection hook the server
  /// harness's chaos injector uses against a running executor, unlike
  /// Config::InvalidationRate whose countdown only the executor itself
  /// advances. Producers touch one relaxed atomic; the executor consumes
  /// at most one request per closure dispatch (the same boundary as the
  /// graveyard safepoint) by arming the executor-local countdown, so all
  /// version-table mutation stays on the executor thread and dispatch
  /// never observes a torn version. Requests pending while no guarded
  /// code runs (baseline-only phases) simply wait; results are never
  /// affected, only tail latency.
  void injectInvalidation(uint64_t Count = 1) { PendingInjected += Count; }

  /// Runs a stop-the-world heap cycle collection now, regardless of the
  /// HeapGc knob or pressure threshold (the safepoint calls this when the
  /// allocation trigger fires; tests call it for deterministic reclaim).
  /// Returns the number of unreachable cycle members freed.
  uint64_t collectHeap();

  /// The active Vm of the calling thread: its installed context's owner.
  static Vm *current();

  /// This Vm's execution context. Other threads may read its relaxed
  /// Stats and Metrics while the Vm lives (the server harness does).
  ExecContext &context() { return Ctx; }

private:
  friend Value vmDispatchCall(ClosObj *, std::vector<Value> &&);
  friend Value vmDeoptHandler(const LowFunction &, const SlotView &,
                              int32_t, Env *, Env *, bool);
  friend void vmBuiltinRebind(Symbol, const Value &, const Value &);

  Config Cfg;
  /// Installed on the building thread for the Vm's lifetime: every later
  /// member is built and destroyed with it installed.
  ExecContext Ctx;
  ContextScope Installed;
  Env *Global;
  std::vector<std::unique_ptr<Module>> Modules;
  /// The native backend when NativeTier is on and supported (owns the
  /// per-Vm executable-code arena). Declared before every container that
  /// can hold native executables — States, the graveyard — so the arena
  /// outlives the code pointing into it even if ~Vm's explicit teardown
  /// order ever changes.
  std::unique_ptr<ExecBackend> OwnBackend;
  ExecBackend *ActiveBackend = nullptr;
  /// Per-function tier state. Only the executor looks states up (dispatch,
  /// the deopt handler, the OSR hook, the builtin watch); compile jobs
  /// hold pointers to TierState members captured at enqueue, which stay
  /// valid because each state is heap-allocated and lives until teardown.
  std::unordered_map<Function *, std::unique_ptr<TierState>> States;
  /// Retired optimized code awaiting reclamation (retired versions and
  /// stale OSR-in code): activations of code being retired are still on
  /// the stack when the deopt handler runs (and under recursion an *outer*
  /// activation of the retired code can survive arbitrarily many further
  /// dispatches), so each entry is stamped with its retire epoch and freed
  /// by the dispatch-boundary safepoint once every activation that could
  /// reference it has unwound — see RetireEpochs in runtime/context.h.
  /// Teardown reclaims whatever remains. Touched only by the owning
  /// executor thread; epochs are monotone, so the vector stays sorted and
  /// reclaim is a prefix erase. Population is mirrored in the
  /// GraveyardSize stats gauge (its level set on every retire/reclaim) so
  /// tests can observe the retire/reclaim lifecycle.
  struct GraveEntry {
    std::unique_ptr<ExecutableCode> Code;
    uint64_t RetireEpoch;
  };
  std::vector<GraveEntry> Graveyard;
  /// Cross-thread injected-invalidation requests (injectInvalidation):
  /// any thread adds, only the owning executor consumes — one per
  /// dispatch, by arming its context's InvalidationCountdown, which stays
  /// executor-local (the native tier's emitted countdown check is a
  /// plain load and must never be written from another thread).
  RelaxedCounter PendingInjected;

  /// The retire policy of a true deoptimization out of \p Code: retires
  /// the version the failing guard belongs to (or the most generic live
  /// one), counts the deopt towards blacklisting and re-warms the
  /// function.
  void retireDeopted(const LowFunction &Code);

  /// Retires \p Code from its function's OSR-in table if it is OSR-in
  /// code there: a real guard failure made its speculation stale, so the
  /// next hot backedge recompiles into the same entry from fresh feedback
  /// instead of re-entering the stale code.
  void retireOsrCode(const LowFunction &Code);

  /// Retires, from every code table, the live code that folded global
  /// builtins: a builtin's binding changed (vmBuiltinRebind).
  void retireBuiltinFolds();

  /// Moves retired code to the graveyard, stamping the current retire
  /// epoch, and re-syncs the gauge.
  void toGraveyard(std::unique_ptr<ExecutableCode> Code);

  /// The graveyard safepoint: frees every entry whose retire epoch is
  /// drained (no live activation entered before the retire). Called from
  /// the dispatch boundary and, with IgnoreEpochs, from teardown where no
  /// activation exists at all.
  void reclaimGraveyard(bool IgnoreEpochs);

  /// Dispatch-boundary poll: two cheap checks, then the expensive work.
  /// Both reclamation halves anchor here — frames are in a known boxed
  /// state at the dispatch boundary, so retired code (graveyard) and
  /// unreachable value cycles (heap) can both be freed safely.
  void safepoint() {
    if (!Graveyard.empty())
      reclaimGraveyard(false);
    if (Cfg.HeapGc.Enabled &&
        Ctx.heap()->shouldCollect(Cfg.HeapGc.ThresholdBytes))
      collectHeap();
  }

  /// The boundary work vmDispatchCall does once per closure call: the
  /// graveyard/heap safepoint poll plus consumption of at most one
  /// cross-thread injected-invalidation request.
  void dispatchBoundary();
};

} // namespace rjit

#endif // RJIT_VM_VM_H
