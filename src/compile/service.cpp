//===-- compile/service.cpp - One tier-up path ---------------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "compile/service.h"
#include "compile/snapshot.h"
#include "lowcode/lower.h"
#include "obs/trace.h"
#include "opt/pipeline.h"
#include "osr/osrin.h"
#include "runtime/context.h"
#include "support/fnv.h"
#include "support/timer.h"

#include <cassert>
#include <functional>

using namespace rjit;

//===----------------------------------------------------------------------===//
// Whole-function versions: the version job's body
//===----------------------------------------------------------------------===//

namespace {

/// Resolves which context a compile request for \p Ctx (re)compiles into
/// \p Want and returns that context's entry, or null if it has none yet.
/// An arity-mismatched call (the dispatch raises before running any
/// version) and a blacklisted or unplaceable specialized context all fall
/// back to the generic root: erroneous call sites must not burn
/// MaxVersions slots. Every context with no typed argument canonicalizes
/// to THE generic root (runtime contexts may carry extra flags, e.g. a
/// zero-arity call's CtxNoMissingArgs; two roots would split the
/// deopt/blacklist bookkeeping). Authoritative under the table's writer
/// lock, a lock-free preview without it.
FnVersion *resolveVersion(Function *Fn, const CallContext &Ctx,
                          VersionTable &Table, CallContext &Want) {
  Want = Ctx;
  if (!(Want.Flags & CtxCorrectArity) || Want.isGeneric())
    Want = genericContext(Fn->Params.size());
  FnVersion *E = Table.exact(Want);
  if (!Want.isGeneric() &&
      ((E && E->Blacklisted) || (!E && Table.fullFor(Want)))) {
    Want = genericContext(Fn->Params.size());
    E = Table.exact(Want);
  }
  return E;
}

} // namespace

FnVersion *rjit::compileAndPublishVersion(Function *Fn,
                                          const CallContext &Ctx,
                                          VersionTable &Table,
                                          const VersionCompileOpts &Opts) {
  // Resolution and entry insertion happen under the writer lock; the
  // compile itself runs unlocked (an executor's guard-failure path never
  // waits out a compile of the same function), and publication re-checks
  // under the lock.
  CallContext Want;
  FnVersion *E;
  {
    VersionWriteGuard G(Table);
    E = resolveVersion(Fn, Ctx, Table, Want);
    if (E && E->Blacklisted)
      return nullptr;
    if (E && E->live())
      return E;
    if (!E)
      E = Table.insert(Want);
    assert(E && "admissible context failed to insert");
  }
  uint64_t T0 = nowNanos();
  if (obs::traceOn())
    obs::traceEvent(obs::TraceEv::CompileStart, 0, E->ObsId,
                    obs::CompileKindFn);

  const OptOptions &O = Opts.Opt;
  EntryState Entry;
  if (!Want.isGeneric()) {
    // Seed inference with the argument types the dispatch guarantees.
    Entry.ParamTypes.reserve(Fn->Params.size());
    for (size_t K = 0; K < Fn->Params.size(); ++K)
      Entry.ParamTypes.push_back(Want.typed(static_cast<unsigned>(K))
                                     ? RType::of(Want.ArgTags[K])
                                     : RType::any());
  }

  // Prefer the elided convention; fall back to a real environment (the
  // generic root only: FullEnv code takes its arguments through the
  // environment, so a context specialization cannot reach it).
  std::unique_ptr<IrCode> Ir =
      optimizeToIr(Fn, CallConv::FullElided, Entry, O);
  if (!Ir && Want.isGeneric())
    Ir = optimizeToIr(Fn, CallConv::FullEnv, EntryState(), O);
  if (!Ir) {
    if (!Want.isGeneric()) {
      // Specialization impossible (no elidable environment): burn the
      // context so future calls go straight to the generic root.
      {
        VersionWriteGuard G(Table);
        E->Blacklisted = true;
      }
      if (obs::traceOn())
        obs::traceEvent(obs::TraceEv::VersionBlacklist, 0, E->ObsId);
      return compileAndPublishVersion(
          Fn, genericContext(Fn->Params.size()), Table, Opts);
    }
    // The generic root itself is uncompilable: blacklist it as the
    // failure marker, or every post-threshold call retries the whole
    // pipeline — synchronously as a per-call compile pause, in
    // background mode as an endless snapshot-capture + enqueue loop
    // (the OSR cache's null-code entries play the same role).
    {
      VersionWriteGuard G(Table);
      E->Blacklisted = true;
    }
    if (obs::traceOn())
      obs::traceEvent(obs::TraceEv::VersionBlacklist, 0, E->ObsId);
    return nullptr;
  }

  std::unique_ptr<ExecutableCode> Exec =
      prepareExecutable(O.Backend, lowerToLow(*Ir));
  uint64_t Dur = nowNanos() - T0;
  ExecContext &Requester = contextOr(O.Ctx);
  Requester.Metrics.CompileLatency.record(Dur);
  if (obs::traceOn())
    obs::traceEvent(obs::TraceEv::CompileFinish, Dur, E->ObsId,
                    obs::CompileKindFn);
  {
    VersionWriteGuard G(Table);
    // Guard-failure blacklisting may have raced ahead of this
    // publication: the code must be discarded, not installed over the
    // executor's decision. A concurrent publication into the same entry
    // (two contexts resolving to the same root) keeps the first code.
    // Dropping Exec here frees it immediately — no epoch/graveyard
    // detour needed, since code that was never published can have no
    // activation — and for the native tier the executable's destructor
    // returns its W^X mapping (the arena mutex makes that safe from a
    // compiler thread racing other installs).
    if (E->Blacklisted)
      return nullptr;
    if (!E->live()) {
      E->FeedbackHash = feedbackHash(*Fn, Opts.HashWithContexts);
      E->CallsSinceSample = 0;
      E->publish(std::move(Exec));
      ++Requester.Stats.Compilations;
      if (!Want.isGeneric())
        ++Requester.Stats.CtxVersions;
    }
  }
  // Direct call linking (native tier v2): patch registered native call
  // sites of Fn forward to the freshly published version. Outside the
  // writer lock — the linker's mutex is a leaf — and guarded on live():
  // if a blacklist or concurrent publication won the race above, there is
  // nothing to link (and re-notifying an already-linked version is
  // idempotent).
  if (E->live())
    backendOr(O.Backend).notifyPublish(Fn, E);
  return E;
}

//===----------------------------------------------------------------------===//
// OSR cache
//===----------------------------------------------------------------------===//

OsrCache::Hit OsrCache::lookup(int32_t Pc,
                               const std::vector<uint32_t> &Sig) const {
  std::lock_guard<std::mutex> L(Mu);
  for (const Entry &E : Entries)
    if (E.Pc == Pc && E.Sig == Sig)
      return {true, E.Code.get()};
  return {};
}

bool OsrCache::full() const {
  std::lock_guard<std::mutex> L(Mu);
  return Entries.size() >= Cap;
}

size_t OsrCache::size() const {
  std::lock_guard<std::mutex> L(Mu);
  return Entries.size();
}

std::unique_ptr<ExecutableCode> OsrCache::invalidate(const LowFunction *Code) {
  std::lock_guard<std::mutex> L(Mu);
  for (auto It = Entries.begin(); It != Entries.end(); ++It)
    if (It->Code && It->Code->lowPtr() == Code) {
      std::unique_ptr<ExecutableCode> Dropped = std::move(It->Code);
      Entries.erase(It);
      return Dropped;
    }
  return nullptr;
}

bool OsrCache::publish(int32_t Pc, std::vector<uint32_t> Sig,
                       std::unique_ptr<ExecutableCode> Code) {
  std::lock_guard<std::mutex> L(Mu);
  if (Entries.size() >= Cap)
    return false;
  for (const Entry &E : Entries)
    if (E.Pc == Pc && E.Sig == Sig)
      return false; // lost a publication race; keep the first entry
  if (obs::traceOn())
    obs::traceEvent(obs::TraceEv::Publish, 0, static_cast<uint64_t>(Pc),
                    obs::CompileKindOsr);
  Entries.push_back({Pc, std::move(Sig), std::move(Code)});
  return true;
}

std::vector<uint32_t> rjit::osrSignature(const EntryState &Entry) {
  std::vector<uint32_t> Sig;
  Sig.reserve(1 + Entry.StackTypes.size() + 2 * Entry.EnvTypes.size());
  Sig.push_back(static_cast<uint32_t>(Entry.StackTypes.size()));
  for (const RType &T : Entry.StackTypes)
    Sig.push_back(T.rawMask());
  for (const auto &[Sym, T] : Entry.EnvTypes) {
    Sig.push_back(Sym);
    Sig.push_back(T.rawMask());
  }
  return Sig;
}

//===----------------------------------------------------------------------===//
// Requests — run on the executor thread
//===----------------------------------------------------------------------===//

namespace {

uint64_t hashCallContext(const CallContext &Ctx) {
  FnvHasher H;
  H.mix(Ctx.Arity);
  H.mix(Ctx.Flags);
  H.mix(Ctx.TypedMask);
  for (unsigned K = 0; K < MaxProfiledArgs; ++K)
    H.mix(static_cast<uint64_t>(Ctx.ArgTags[K]));
  return H.H;
}

uint64_t hashDeoptContext(const DeoptContext &Ctx) {
  FnvHasher H;
  H.mix(static_cast<uint64_t>(Ctx.Pc));
  H.mix(static_cast<uint64_t>(Ctx.Reason.Kind));
  H.mix(static_cast<uint64_t>(Ctx.Reason.ReasonPc));
  H.mix(static_cast<uint64_t>(Ctx.Reason.FailedSlot));
  H.mix(static_cast<uint64_t>(Ctx.Reason.ActualTag));
  H.mix(reinterpret_cast<uintptr_t>(Ctx.Reason.ActualFn));
  H.mix(Ctx.StackSize);
  for (unsigned K = 0; K < Ctx.StackSize; ++K)
    H.mix(static_cast<uint64_t>(Ctx.StackTags[K]));
  H.mix(Ctx.EnvSize);
  for (unsigned K = 0; K < Ctx.EnvSize; ++K) {
    H.mix(Ctx.EnvEntries[K].first);
    H.mix(static_cast<uint64_t>(Ctx.EnvEntries[K].second));
  }
  return H.H;
}

uint64_t hashOsrSignature(int32_t Pc, const std::vector<uint32_t> &Sig) {
  FnvHasher H;
  H.mix(static_cast<uint64_t>(Pc));
  for (uint32_t X : Sig)
    H.mix(X);
  return H.H;
}

/// Runs a request's job body, which compiles, publishes and returns
/// whether it published. Without a pool it runs now against live
/// feedback; with one, the executor captures \p Fn's feedback closure now
/// and a compiler thread runs the body under that snapshot. \p Root, when
/// set, yields the profile that replaces \p Fn's in either mode.
CompileStatus submit(CompilerPool *Pool, const CompileKey &Key, Function *Fn,
                     std::function<bool()> Body,
                     const std::function<FeedbackTable()> &Root = nullptr) {
  if (!Pool) {
    if (!Root)
      return Body() ? CompileStatus::Published : CompileStatus::Refused;
    // A partial snapshot overrides only the root: inlined callees read
    // (and repair) their live tables, which this thread owns.
    FeedbackSnapshot Partial;
    Partial.replace(Fn, Root());
    SnapshotScope Scope(Partial);
    return Body() ? CompileStatus::Published : CompileStatus::Refused;
  }
  if (Pool->queue().pending(Key))
    return CompileStatus::Pending; // in flight: skip the snapshot capture
  std::shared_ptr<FeedbackSnapshot> Snap = FeedbackSnapshot::capture(Fn);
  if (Root)
    Snap->replace(Fn, Root());
  CompileJob Job{Key, [Snap, Body = std::move(Body)] {
                   SnapshotScope Scope(*Snap);
                   Body();
                 }};
  CompileQueue::Push R = Pool->queue().push(std::move(Job));
  return R == CompileQueue::Push::Enqueued ||
                 R == CompileQueue::Push::Duplicate
             ? CompileStatus::Pending
             : CompileStatus::Refused;
}

} // namespace

CompileStatus rjit::requestVersionCompile(CompilerPool *Pool, Function *Fn,
                                          const CallContext &Ctx,
                                          VersionTable &Table,
                                          const VersionCompileOpts &Opts) {
  // The job's own resolution, lock-free: a context whose resolved version
  // is blacklisted or already live can never publish anything new —
  // without this check, every call to e.g. a blacklisted hot function
  // would pay a snapshot deep-copy and a queue round-trip for a job that
  // discards itself. Resolving *before* keying also collapses distinct
  // raw contexts that canonicalize to the same version (arity mismatches,
  // a full table) into one request. The body re-resolves authoritatively
  // under the writer lock.
  CallContext Want;
  if (FnVersion *E = resolveVersion(Fn, Ctx, Table, Want)) {
    if (E->Blacklisted)
      return CompileStatus::Refused;
    if (E->live())
      return CompileStatus::Published;
  }
  CompileKey Key{Opts.Opt.Ctx, Fn, CompileKind::Function,
                 hashCallContext(Want)};
  return submit(Pool, Key, Fn, [Fn, Want, &Table, Opts] {
    return compileAndPublishVersion(Fn, Want, Table, Opts) != nullptr;
  });
}

CompileStatus rjit::requestOsrCompile(CompilerPool *Pool, Function *Fn,
                                      const EntryState &Entry,
                                      OsrCache &Cache,
                                      const OptOptions &Opts) {
  std::vector<uint32_t> Sig = osrSignature(Entry);
  OsrCache::Hit H = Cache.lookup(Entry.Pc, Sig);
  if (H.Found)
    return H.Code ? CompileStatus::Published : CompileStatus::Refused;
  if (Cache.full())
    return CompileStatus::Refused; // no room for another signature
  CompileKey Key{Opts.Ctx, Fn, CompileKind::OsrIn,
                 hashOsrSignature(Entry.Pc, Sig)};
  return submit(Pool, Key, Fn, [Fn, Entry, Sig, &Cache, Opts] {
    // Null code is published as the failure marker: the executor stops
    // requesting this signature instead of recompiling it forever.
    std::unique_ptr<ExecutableCode> Code = compileOsrInCode(Fn, Entry, Opts);
    bool Compiled = Code != nullptr;
    return Cache.publish(Entry.Pc, Sig, std::move(Code)) && Compiled;
  });
}

CompileStatus rjit::requestContinuationCompile(CompilerPool *Pool,
                                               Function *Fn,
                                               const DeoptContext &Ctx,
                                               DeoptlessTable &Table,
                                               bool FeedbackCleanup,
                                               const OptOptions &Opts) {
  if (Table.full())
    return CompileStatus::Refused;
  CompileKey Key{Opts.Ctx, Fn, CompileKind::Continuation,
                 hashDeoptContext(Ctx)};
  return submit(
      Pool, Key, Fn,
      [Fn, Ctx, &Table, Opts] {
        std::unique_ptr<ExecutableCode> Code =
            compileContinuationCode(Fn, Ctx, Opts);
        if (!Code || !Table.insert(Ctx, std::move(Code)))
          return false;
        ++contextOr(Opts.Ctx).Stats.DeoptlessCompiles;
        if (obs::traceOn())
          obs::traceEvent(obs::TraceEv::DeoptlessCompile, 0,
                          static_cast<uint64_t>(Ctx.Pc));
        return true;
      },
      [Fn, &Ctx, FeedbackCleanup] {
        return repairedContinuationFeedback(Fn, Ctx, FeedbackCleanup);
      });
}
