//===-- vm/vm.cpp - VM facade & tier manager ------------------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/vm.h"
#include "bc/interp.h"
#include "compile/pool.h"
#include "compile/snapshot.h"
#include "dispatch/context.h"
#include "lang/parser.h"
#include "lowcode/exec.h"
#include "lowcode/lower.h"
#include "native/native.h"
#include "opt/pipeline.h"
#include "osr/deopt.h"
#include "osr/osrin.h"
#include "runtime/builtins.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

using namespace rjit;

bool rjit::nativeTierDefault() {
  // Cached: Config's member initializer calls this for every Config ever
  // built (the fuzzer builds tens of thousands), and the environment
  // cannot change after process start.
  static const bool D = [] {
    const char *E = std::getenv("RJIT_NATIVE_TIER");
    return E && *E && *E != '0';
  }();
  return D;
}

namespace {

/// Runs the dispatched version \p Code of \p Clos: elided code takes the
/// arguments in its slots; FullEnv code gets the environment the baseline
/// would build.
Value runVersion(ClosObj *Clos, ExecutableCode &Code,
                 std::vector<Value> &&Args) {
  if (Code.low().Conv == CallConv::FullElided)
    return Code.run(std::move(Args), /*CurEnv=*/nullptr, Clos->Enclosing);
  Value Hold;
  return Code.run({}, bindCallEnv(Clos, std::move(Args), Hold),
                  Clos->Enclosing);
}

} // namespace

OptOptions Vm::optView() {
  OptOptions O;
  O.Speculate = Cfg.Speculate;
  O.Inline = Cfg.Inlining;
  O.Loop = Cfg.LoopOpts;
  O.VerifyEachPass = Cfg.VerifyBetweenPasses;
  O.Backend = ActiveBackend;
  O.Ctx = &Ctx;
  O.IntactBuiltins = Ctx.Watch.Intact;
  O.BuiltinEpoch = Ctx.Watch.Epoch.load(std::memory_order_relaxed);
  return O;
}

VersionCompileOpts Vm::versionView() {
  return {optView(), Cfg.ContextDispatch};
}

namespace rjit {

Value vmDispatchCall(ClosObj *Clos, std::vector<Value> &&Args) {
  Vm *V = Vm::current();
  assert(V && "dispatch without an active Vm");
  V->dispatchBoundary();
  Function *Fn = Clos->Fn;
  ++Fn->CallCount;
  VmStats &S = V->context().Stats;

  if (V->Cfg.Strategy == TierStrategy::BaselineOnly)
    return callClosureBaseline(Clos, std::move(Args));

  TierState &TS = V->stateFor(Fn);
  const bool CtxDispatch = V->Cfg.ContextDispatch;
  CallContext Ctx = CtxDispatch
                        ? computeCallContext(Args, Fn->Params.size())
                        : genericContext(Fn->Params.size());

  FnVersion *Ver = TS.Versions.dispatch(Ctx);

  // ProfileDrivenReopt: every ReoptSampleEvery-th call runs the baseline
  // to sample fresh type feedback from a supposedly-stable function;
  // recompile on change (condensed form of the DLS'20 sampling strategy).
  // Sampling state is per version: each specialization re-validates its
  // own profile.
  constexpr uint64_t ReoptSampleEvery = 20;
  if (Ver && V->Cfg.Strategy == TierStrategy::ProfileDrivenReopt &&
      ++Ver->CallsSinceSample % ReoptSampleEvery == 0) {
    Value R = callClosureBaseline(Clos, std::move(Args));
    if (feedbackHash(*Fn, CtxDispatch) != Ver->FeedbackHash) {
      {
        std::lock_guard G(TS.Versions);
        V->toGraveyard(Ver->retire());
      }
      requestVersionCompile(V->ActivePool, Fn, Ver->Ctx, TS.Versions,
                            V->versionView());
      ++S.Reoptimizations;
    }
    return R;
  }

  if (!Ver && Fn->CallCount >= V->Cfg.CompileThreshold) {
    // Synchronously the request publishes the version now. With a pool,
    // this call keeps going in the baseline: the warmup pause becomes one
    // more profiled baseline execution, and the version appears to a
    // later call via atomic publication (a racing one may be done).
    if (requestVersionCompile(V->ActivePool, Fn, Ctx, TS.Versions,
                              V->versionView()) == CompileStatus::Pending)
      ++S.WarmupPausesAvoided;
    Ver = TS.Versions.dispatch(Ctx);
  }

  // Hit/miss accounting: only calls whose context *could* have had a
  // specialized version count — a hit when one serves them, a miss when
  // they fall back to the generic root or the baseline. Calls with a
  // generic context (e.g. zero-arity functions) have nothing to
  // specialize and stay out of the ratio.
  ExecutableCode *Code = Ver ? Ver->code() : nullptr;
  if (!Code) {
    if (CtxDispatch && !Ctx.isGeneric() && TS.Versions.size() > 0)
      S.CtxDispatchMisses.bump();
    return callClosureBaseline(Clos, std::move(Args));
  }

  ++Ver->Hits;
  if (CtxDispatch) {
    if (!Ver->Ctx.isGeneric())
      S.CtxDispatchHits.bump();
    else if (!Ctx.isGeneric())
      S.CtxDispatchMisses.bump();
  }

  checkArity(Fn, Args.size());
  return runVersion(Clos, *Code, std::move(Args));
}

/// The Vm's guard-failure handler (its context's LowHooks::Deopt), paper
/// Listing 6: try deoptless first, then apply the strategy's retire
/// policy, then resume the baseline interpreter.
Value vmDeoptHandler(const LowFunction &F, const SlotView &Slots,
                     int32_t MetaIdx, Env *CurEnv, Env *ParentEnv,
                     bool Injected) {
  Vm *V = Vm::current();
  assert(V && "deopt without an active Vm");
  const DeoptMeta &Meta = F.Deopts[MetaIdx];
  const bool Deoptless = V->Cfg.Strategy == TierStrategy::Deoptless;
  if (Deoptless && CurEnv && Meta.RKind != DeoptReasonKind::BuiltinEpoch) {
    // A leaked/materialized environment (CurEnv) is never handled
    // deoptless (paper §4.3). A failed epoch check is refused, and
    // counted, by deoptlessCondition whatever the frame.
    ++V->context().Stats.DeoptlessSkipEnv;
  } else if (Deoptless) {
    TierState &Owner = V->stateFor(continuationOwner(F, Meta));
    Value Result;
    if (tryDeoptless(F, Slots, Meta, ParentEnv, Injected,
                     Owner.Continuations,
                     {V->optView(), V->Cfg.FeedbackCleanup, V->ActivePool},
                     Result)) {
      // A real failure makes OSR-in code stale even when a continuation
      // absorbed it: retire it, as retireDeopted does on a true deopt, or
      // every later activation with this entry signature enters it and
      // fails the same guard again.
      if (!Injected)
        V->retireOsrCode(F);
      return Result;
    }
  }
  // A true deoptimization normally retires the optimized code: under
  // Normal this is the Fig. 1 cycle, under Deoptless it is the
  // "deoptimized for good" case of §4.3. The exception is an *injected*
  // failure (§5.1 test mode) under Deoptless that could not be handled
  // (e.g. it struck inside a running continuation): the guarded fact
  // still holds, so the code stays valid and is kept.
  if (!(Deoptless && Injected))
    V->retireDeopted(F);
  return deoptToBaseline(F, Slots, Meta, CurEnv, ParentEnv);
}

/// The builtin watch's handler (runtime/context.h), the one function every
/// store that changes a global binding holding a builtin — or giving one a
/// builtin — reaches before it lands: top-level assignment, <<-, and the
/// environment stores and element stores of every tier. Only a builtin's
/// own name can have been folded (opt/translate), so only those bindings
/// matter: when one stops holding its builtin, the epoch moves, the code
/// that folded builtins retires, and running activations of it fail their
/// next epoch check.
void vmBuiltinRebind(Symbol S, const Value &Old, const Value &New) {
  Vm *V = Vm::current();
  assert(V && "builtin rebinding without an active Vm");
  BuiltinId Id;
  if (!builtinNamed(S, Id))
    return;
  auto Holds = [Id](const Value &X) {
    return X.tag() == Tag::Builtin && X.builtinId() == Id;
  };
  BuiltinWatch &W = V->Ctx.Watch;
  const uint64_t Bit = uint64_t(1) << static_cast<unsigned>(Id);
  W.Intact = Holds(New) ? W.Intact | Bit : W.Intact & ~Bit;
  if (!Holds(Old) || Holds(New))
    return;
  // The bump precedes the retire scan, whose table locks order it before
  // any publication that could still carry the old epoch (CodeTable).
  uint64_t Epoch = W.Epoch.load(std::memory_order_relaxed) + 1;
  W.Epoch.store(Epoch, std::memory_order_relaxed);
  ++V->Ctx.Stats.BuiltinRebinds;
  if (obs::traceOn())
    obs::traceEvent(obs::TraceEv::BuiltinRebind, 0, S, Epoch);
  V->retireBuiltinFolds();
}

/// OSR-in at a hot backedge (paper §4.2): request the continuation for
/// the current (pc, entry signature) and run the rest of the activation in
/// it when published. Synchronously the request compiles it now, and later
/// activations with the same signature re-enter it; with a pool the
/// activation keeps interpreting and a later hot backedge enters it.
bool vmOsrInHook(Function *Fn, Env *E, std::vector<Value> &Stack, int32_t Pc,
                 Value &Result) {
  Vm *V = Vm::current();
  assert(V && "OSR hook without an active Vm");
  EntryState Entry = buildOsrEntryState(Fn, E, Stack, Pc);
  CodeTable<OsrKey> &Osr = V->stateFor(Fn).Osr;
  CompileStatus R = requestOsrCompile(V->pool(), Fn, Entry, Osr, V->optView());
  if (R == CompileStatus::Pending)
    ++V->context().Stats.WarmupPausesAvoided;
  if (R != CompileStatus::Published)
    return false;
  Result = enterOsrContinuation(*Osr.dispatch(OsrKey(Entry))->code(), Entry,
                                E, Stack);
  return true;
}

} // namespace rjit

Vm::Vm(Config C) : Cfg(C), Ctx(this), Installed(Ctx) {
  // The context is installed: from here on every Env/ClosObj/ListObj
  // built on this thread enrolls in its heap (the global env included),
  // and every code activation pins its retire epochs.
  if (Cfg.Trace.Enabled)
    obs::traceBegin(Cfg.Trace.BufferCapacity);

  Global = new Env(nullptr);
  Global->retain();
  installBuiltins(*Global);
  Ctx.Watch.Rebind = vmBuiltinRebind;

  // Resolve the execution backend: the native tier when requested *and*
  // constructible on this host (runtime architecture detection — non-x86-64
  // hosts keep the interpreter); the threaded interpreter as the portable
  // fallback.
  if (Cfg.NativeTier)
    OwnBackend = makeNativeBackend(Cfg.NativeV2, &Ctx);
  ActiveBackend = OwnBackend ? OwnBackend.get() : &interpBackend();

  if (Cfg.BackgroundCompile) {
    ActivePool = Cfg.Pool;
    if (!ActivePool) {
      OwnPool = std::make_unique<CompilerPool>(Cfg.CompilerThreads);
      ActivePool = OwnPool.get();
    }
  }

  Ctx.Interp.CallClosure = vmDispatchCall;
  // BaselineOnly is the reference semantics: no optimized code, OSR-in
  // included. A zero threshold turns OSR-in off; without a hook the
  // interpreter's backedge never divides by it.
  if (Cfg.Strategy != TierStrategy::BaselineOnly && Cfg.OsrThreshold)
    Ctx.Interp.OsrIn = vmOsrInHook;
  Ctx.Interp.OsrThreshold = Cfg.OsrThreshold;

  Ctx.Low.Deopt = vmDeoptHandler;
  Ctx.Low.InvalidationRate = Cfg.InvalidationRate;
  Ctx.Low.TestRng.reseed(Cfg.InvalidationSeed);
  Ctx.Low.rearmInvalidation();
}

Vm::~Vm() {
  // In-flight compile jobs hold pointers into this Vm's tier states,
  // continuation tables, functions and context: the barrier must come
  // first.
  drainCompiles();
  // Tier states hold executables that point into the native code arena:
  // drop them (every code table) while it still exists.
  States.clear();
  // Teardown is the fallback safepoint: no activation of retired code can
  // still be on the stack (epochs are ignored — the executor is gone), so
  // whatever the dispatch-boundary safepoints did not yet reclaim — e.g.
  // with ReclaimAtSafepoints off — is reclaimed here, before the native
  // backend's code arena goes away with the Vm.
  reclaimGraveyard(/*IgnoreEpochs=*/true);
  Modules.clear();
  Global->release();
  // The heap half of the teardown safepoint: with our Global handle gone,
  // every Env↔closure cycle the program built is unreachable — collect
  // them regardless of the HeapGc knob, so no configuration leaks (the
  // strict leak-checked ASan job runs every fuzzer config). Survivors are
  // values that legitimately escaped (eval results the embedder still
  // holds); orphan them so plain refcounting carries them safely past the
  // registry's lifetime.
  collectHeap();
  Ctx.heap()->orphanAll();
  if (Cfg.Trace.Enabled)
    obs::traceEnd();
}

uint64_t Vm::collectHeap() {
  auto Start = std::chrono::steady_clock::now();
  GcHeap::CollectStats R = Ctx.heap()->collect();
  uint64_t PauseNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
  ++Ctx.Stats.GcCollections;
  Ctx.Stats.GcFreedBytes += R.FreedBytes;
  Ctx.Metrics.GcPause.record(PauseNs);
  if (obs::traceOn())
    obs::traceEvent(obs::TraceEv::GcCollect, PauseNs, R.FreedBytes,
                    R.Collected);
  return R.Collected;
}

void Vm::toGraveyard(std::unique_ptr<ExecutableCode> Code) {
  if (!Code)
    return;
  if (obs::traceOn())
    obs::traceEvent(obs::TraceEv::Retire, 0, Code->obsId());
  // Retires only happen on the executor thread (deopt handler, reopt
  // sampling — both run inside dispatch), so stamping and the later
  // epoch comparison are unsynchronized by design.
  Graveyard.push_back({std::move(Code), Ctx.epochs()->stampRetire()});
  Ctx.Stats.GraveyardSize.setLevel(Graveyard.size());
}

void Vm::reclaimGraveyard(bool IgnoreEpochs) {
  // An entry is drained when its retire epoch precedes the entry epoch of
  // every live code activation: the retire unlinked the code before any
  // of them started, so no frame on this executor's stack can be running
  // it or hold its DeoptMetas. (A plain "no activation live" check is not
  // enough: recursion lets an inner call retire the version an *outer*
  // activation is still executing, and that entry must survive until the
  // outer frame unwinds.) Epochs are monotone, so the graveyard is sorted
  // and reclaim is a prefix erase.
  const uint64_t MinLive =
      IgnoreEpochs ? UINT64_MAX : Ctx.epochs()->minLiveEntry();
  size_t N = 0;
  while (N < Graveyard.size() && Graveyard[N].RetireEpoch < MinLive)
    ++N;
  if (!N)
    return;
  if (obs::traceOn())
    for (size_t I = 0; I < N; ++I)
      obs::traceEvent(obs::TraceEv::Reclaim, 0, Graveyard[I].Code->obsId());
  // Destroying the executables frees their backing code too: the native
  // tier's destructor returns the per-function W^X mapping to the OS.
  Graveyard.erase(Graveyard.begin(),
                  Graveyard.begin() + static_cast<ptrdiff_t>(N));
  Ctx.Stats.GraveyardSize.setLevel(Graveyard.size());
}

void Vm::drainCompiles() {
  if (ActivePool)
    ActivePool->drain(&Ctx);
}

Vm *Vm::current() { return currentContext().Owner; }

void Vm::dispatchBoundary() {
  // Graveyard/heap safepoint: the dispatch boundary, *before* this call
  // pins a new code activation. Reclaims retired code whose retire epoch
  // every live activation postdates; with an empty graveyard this is one
  // branch.
  safepoint();
  // Cross-thread storm injection (Vm::injectInvalidation): consume at
  // most one pending request per dispatch by arming the executor-local
  // countdown, so the next dynamic guard check this thread executes
  // fails injected. Producers only ever touched the relaxed counter; the
  // countdown itself — read by inline JIT code — is written here, on the
  // executor, never cross-thread.
  if (PendingInjected.load() > 0) {
    PendingInjected -= 1;
    Ctx.Low.InvalidationCountdown = 1;
  }
}

TierState &Vm::stateFor(Function *Fn) {
  assert(current() == this &&
         "tier state is looked up only by the executor that built the Vm");
  std::unique_ptr<TierState> &S = States[Fn];
  if (!S)
    S = std::make_unique<TierState>(Cfg.MaxVersions, Cfg.MaxContinuations);
  return *S;
}

void Vm::retireOsrCode(const LowFunction &Code) {
  // The failing activation is still running the code, so it leaves
  // through the graveyard; the entry stays, and its key's next hot
  // backedge republishes into it.
  CodeTable<OsrKey> &Osr = stateFor(Code.Origin).Osr;
  std::lock_guard G(Osr);
  if (CodeEntry<OsrKey> *E = Osr.owner(&Code))
    toGraveyard(E->retire());
}

void Vm::retireBuiltinFolds() {
  auto Retire = [this](auto &Table) {
    std::lock_guard G(Table);
    for (auto *E : Table.entries())
      if (ExecutableCode *X = E->code(); X && X->low().FoldsBuiltins)
        toGraveyard(E->retire());
  };
  for (auto &[Fn, TS] : States) {
    Retire(TS->Versions);
    Retire(TS->Continuations);
    Retire(TS->Osr);
  }
}

void Vm::retireDeopted(const LowFunction &Code) {
  Function *Fn = Code.Origin;
  TierState &TS = stateFor(Fn);
  // A failing guard inside OSR-in code retires it. The usual OSR-deopt
  // bookkeeping follows (retire the most generic live version, re-warm).
  retireOsrCode(Code);
  // Retire the version the failing guard belongs to. Deopts out of OSR-in
  // or continuation code (not in the table) retire the most generic live
  // version — the seed's single-`Optimized` behavior — and when nothing is
  // live the deopt still counts against the generic root's bookkeeping
  // entry so blacklisting accumulates across the recompile cycle.
  // Retirement and blacklisting race with a compiler thread publishing
  // into the same table; the writer lock serializes them (a publish that
  // loses the race to a blacklist discards its code).
  std::lock_guard G(TS.Versions);
  FnVersion *Ver = TS.Versions.owner(&Code);
  if (!Ver)
    Ver = TS.Versions.mostGenericLive();
  if (!Ver) {
    CallContext Root = genericContext(Fn->Params.size());
    Ver = TS.Versions.exact(Root);
    if (!Ver)
      Ver = TS.Versions.insert(Root);
  }
  // The version cannot be freed yet — its frames (and the DeoptMeta being
  // processed) are still live — so it moves to the graveyard.
  if (Ver->live())
    toGraveyard(Ver->retire());
  ++Ver->DeoptCount;
  if (obs::traceOn())
    obs::traceEvent(obs::TraceEv::VersionDeopt, 0, Ver->ObsId);
  if (Ver->DeoptCount >= Cfg.DeoptBlacklist && !Ver->Blacklisted)
    Ver->markFailed();
  // Re-warm before recompiling so the baseline can collect fresh feedback
  // (Fig. 1: deopt -> profile -> recompile).
  Fn->CallCount = 0;
}

ExecutableCode *Vm::compileFunction(Function *Fn) {
  // The version job's body (compile/service), run now.
  FnVersion *Ver =
      compileAndPublishVersion(Fn, genericContext(Fn->Params.size()),
                               stateFor(Fn).Versions, versionView());
  return Ver ? Ver->code() : nullptr;
}

Value Vm::eval(const std::string &Source) {
  Value Result;
  std::string Error;
  if (!eval(Source, Result, Error))
    rerror(Error);
  return Result;
}

bool Vm::eval(const std::string &Source, Value &Result, std::string &Error) {
  ParseResult P = parseProgram(Source);
  if (!P.ok()) {
    Error = P.Error;
    return false;
  }
  BcResult B = compileToBc(*P.Ast);
  if (!B.ok()) {
    Error = B.Error;
    return false;
  }
  Modules.push_back(std::move(B.Mod));
  Result = interpret(Modules.back()->Top, Global);
  return true;
}
