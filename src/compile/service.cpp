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
#include "osr/deoptless.h"
#include "runtime/context.h"
#include "support/timer.h"

#include <cassert>
#include <functional>

using namespace rjit;

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
                          CodeTable<CallContext> &Table, CallContext &Want) {
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

/// The request path every kind shares. What \p T already holds for \p K
/// settles the request when a compile could add nothing: a failure mark
/// or a full table refuses, live code is published (lock-free; the body's
/// publication re-checks under the writer lock). Otherwise runs \p Body,
/// which compiles, publishes and returns whether it published: without a
/// pool now, against live feedback; with one, the executor captures
/// \p Fn's feedback closure now and a compiler thread runs the body under
/// that snapshot. \p Root, when set, yields the profile that replaces
/// \p Fn's in either mode.
template <typename Key>
CompileStatus request(CompilerPool *Pool, Function *Fn, CodeTable<Key> &T,
                      const Key &K, const OptOptions &Opts,
                      std::function<bool()> Body,
                      const std::function<FeedbackTable()> &Root = nullptr) {
  if (const CodeEntry<Key> *E = T.exact(K)) {
    if (E->Blacklisted)
      return CompileStatus::Refused;
    if (E->live())
      return CompileStatus::Published;
  } else if (T.fullFor(K)) {
    return CompileStatus::Refused;
  }
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
  CompileKey QKey{Opts.Ctx, Fn, Key::Kind, K.hash()};
  if (Pool->queue().pending(QKey))
    return CompileStatus::Pending; // in flight: skip the snapshot capture
  std::shared_ptr<FeedbackSnapshot> Snap = FeedbackSnapshot::capture(Fn);
  if (Root)
    Snap->replace(Fn, Root());
  CompileJob Job{QKey, [Snap, Body = std::move(Body)] {
                   SnapshotScope Scope(*Snap);
                   Body();
                 }};
  CompileQueue::Push R = Pool->queue().push(std::move(Job));
  return R == CompileQueue::Push::Enqueued ||
                 R == CompileQueue::Push::Duplicate
             ? CompileStatus::Pending
             : CompileStatus::Refused;
}

/// Compiles the continuation entering \p Fn's bytecode at \p Entry under
/// \p Conv — OSR-in code for a hot backedge or a deoptless continuation —
/// prepared for Opts.Backend, or returns null when \p Fn cannot be
/// compiled from that state. What both continuation jobs run, in either
/// mode.
std::unique_ptr<ExecutableCode> compileContinuation(Function *Fn,
                                                    CallConv Conv,
                                                    const EntryState &Entry,
                                                    const OptOptions &Opts) {
  assert((Conv == CallConv::OsrIn || Conv == CallConv::Deoptless) &&
         "continuations enter mid-function");
  uint64_t T0 = nowNanos();
  std::unique_ptr<IrCode> Ir = optimizeToIr(Fn, Conv, Entry, Opts);
  if (!Ir)
    return nullptr;
  std::unique_ptr<ExecutableCode> Code =
      prepareExecutable(Opts.Backend, lowerToLow(*Ir));
  uint64_t Dur = nowNanos() - T0;
  contextOr(Opts.Ctx).Metrics.CompileLatency.record(Dur);
  if (obs::traceOn())
    obs::traceEvent(obs::TraceEv::CompileFinish, Dur,
                    static_cast<uint64_t>(Entry.Pc),
                    static_cast<uint64_t>(Conv == CallConv::OsrIn
                                              ? CompileKind::OsrIn
                                              : CompileKind::Continuation));
  return Code;
}

} // namespace

//===----------------------------------------------------------------------===//
// Whole-function versions: the version job's body
//===----------------------------------------------------------------------===//

FnVersion *rjit::compileAndPublishVersion(Function *Fn,
                                          const CallContext &Ctx,
                                          CodeTable<CallContext> &Table,
                                          const VersionCompileOpts &Opts) {
  // Resolution and entry insertion happen under the writer lock; the
  // compile itself runs unlocked (an executor's guard-failure path never
  // waits out a compile of the same function), and publication re-checks
  // under the lock.
  CallContext Want;
  FnVersion *E;
  {
    std::lock_guard G(Table);
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
                    static_cast<uint64_t>(CompileKind::Function));

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
    // The failure mark burns an impossible specialization (no elidable
    // environment), so future calls go straight to the generic root. On
    // the root itself it stops every post-threshold call from retrying
    // the whole pipeline: synchronously a per-call compile pause, in
    // background mode an endless snapshot-capture + enqueue loop.
    Table.publish(Want, nullptr);
    if (Want.isGeneric())
      return nullptr;
    return compileAndPublishVersion(Fn, genericContext(Fn->Params.size()),
                                    Table, Opts);
  }

  std::unique_ptr<ExecutableCode> Exec =
      prepareExecutable(O.Backend, lowerToLow(*Ir));
  uint64_t Dur = nowNanos() - T0;
  ExecContext &Requester = contextOr(O.Ctx);
  Requester.Metrics.CompileLatency.record(Dur);
  if (obs::traceOn())
    obs::traceEvent(obs::TraceEv::CompileFinish, Dur, E->ObsId,
                    static_cast<uint64_t>(CompileKind::Function));
  // Guard-failure blacklisting may have raced ahead of this publication,
  // or a concurrent one into the same entry (two contexts resolving to
  // the same root): either way the code is discarded, not installed over
  // the executor's decision or the first code.
  if (Table.publish(Want, std::move(Exec),
                    feedbackHash(*Fn, Opts.HashWithContexts),
                    &Requester.Watch.Epoch)) {
    ++Requester.Stats.Compilations;
    if (!Want.isGeneric())
      ++Requester.Stats.CtxVersions;
  }
  return E->live() ? E : nullptr;
}

//===----------------------------------------------------------------------===//
// Requests — run on the executor thread
//===----------------------------------------------------------------------===//

CompileStatus rjit::requestVersionCompile(CompilerPool *Pool, Function *Fn,
                                          const CallContext &Ctx,
                                          CodeTable<CallContext> &Table,
                                          const VersionCompileOpts &Opts) {
  // The job's own resolution, lock-free, so the shared check sees the
  // entry the job would publish into: a resolved version that is
  // blacklisted or already live can never publish anything new — without
  // this, every call to e.g. a blacklisted hot function would pay a
  // snapshot deep-copy and a queue round-trip for a job that discards
  // itself. Resolving *before* keying also collapses distinct raw
  // contexts that canonicalize to the same version (arity mismatches, a
  // full table) into one request. The body re-resolves authoritatively
  // under the writer lock.
  CallContext Want;
  resolveVersion(Fn, Ctx, Table, Want);
  return request(Pool, Fn, Table, Want, Opts.Opt, [Fn, Want, &Table, Opts] {
    return compileAndPublishVersion(Fn, Want, Table, Opts) != nullptr;
  });
}

CompileStatus rjit::requestOsrCompile(CompilerPool *Pool, Function *Fn,
                                      const EntryState &Entry,
                                      CodeTable<OsrKey> &Table,
                                      const OptOptions &Opts) {
  OsrKey K(Entry);
  return request(Pool, Fn, Table, K, Opts, [Fn, Entry, K, &Table, Opts] {
    if (!Table.publish(K,
                       compileContinuation(Fn, CallConv::OsrIn, Entry, Opts),
                       0, &contextOr(Opts.Ctx).Watch.Epoch))
      return false;
    ++contextOr(Opts.Ctx).Stats.OsrInCompilations;
    return true;
  });
}

CompileStatus rjit::requestContinuationCompile(
    CompilerPool *Pool, Function *Fn, const DeoptContext &Ctx,
    CodeTable<DeoptContext> &Table, bool FeedbackCleanup,
    const OptOptions &Opts) {
  return request(
      Pool, Fn, Table, Ctx, Opts,
      [Fn, Ctx, &Table, Opts] {
        if (!Table.publish(Ctx,
                           compileContinuation(Fn, CallConv::Deoptless,
                                               continuationEntry(Ctx), Opts),
                           0, &contextOr(Opts.Ctx).Watch.Epoch))
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
