//===-- dispatch/version.h - Per-function version tables --------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A function's optimized code, generalized from one pointer to a bounded
/// dispatch table of context-specialized versions — the entry-side
/// counterpart of the deoptless continuation table, with the same
/// discipline: bounded, kept most-specialized-first, hit-counted, scanned
/// for the first compatible entry. All per-version tier bookkeeping
/// (deopt counts, blacklist, reopt sampling state) lives here; an entry
/// whose code is null is *retired* — its context and counters persist so
/// blacklisting survives the Fig. 1 deopt/recompile cycle.
///
/// The fully generic root context is exempt from the capacity bound (there
/// is at most one), so a full table degrades to the seed's single-version
/// behavior rather than to the baseline.
///
/// Concurrency (background compilation): lookups are lock-free reads. The
/// table publishes an immutable most-specialized-first linearization via a
/// release store and readers take an acquire snapshot; a version's code
/// pointer is itself released/acquired so an executor that observes a live
/// entry also observes the fully built code and its bookkeeping. Mutation
/// (insert, publish, retire, blacklist) is serialized by a writer lock —
/// take a VersionWriteGuard first; insert() asserts the discipline. The
/// executor never blocks on readers' behalf: it keeps dispatching into the
/// baseline until a version appears.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_DISPATCH_VERSION_H
#define RJIT_DISPATCH_VERSION_H

#include "dispatch/context.h"
#include "exec/backend.h"
#include "lowcode/lowcode.h"
#include "obs/trace.h"
#include "support/cowlist.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rjit {

/// One optimized version of a function with its compilation context and
/// tier bookkeeping. Code is atomically published (release) and read
/// (acquire); ownership stays in the entry until retirement moves it to
/// the Vm's graveyard. Hits/DeoptCount/CallsSinceSample are touched only
/// by the owning executor thread; Blacklisted is written under the table's
/// writer lock and read (racily but atomically) by dispatch.
struct FnVersion {
  CallContext Ctx;
  uint32_t Hits = 0;
  uint32_t DeoptCount = 0;
  std::atomic<bool> Blacklisted{false}; ///< too many deopts (or uncompilable)
  uint64_t CallsSinceSample = 0; ///< ProfileDrivenReopt period counter
  uint64_t FeedbackHash = 0;     ///< profile snapshot at compile time
  /// Stable observability identity: the A payload of every lifecycle
  /// trace event of this entry (obs/trace.h). Minted at insert and kept
  /// across the retire/recompile cycle, so one id shows the whole Fig. 1
  /// story of this entry.
  const uint64_t ObsId = obs::nextVersionId();

  /// The published executable (acquire), or null when retired / not yet
  /// built. Backend-produced: interpreter-backed or native machine code.
  ExecutableCode *code() const {
    return Code.load(std::memory_order_acquire);
  }
  bool live() const { return code() != nullptr; }

  /// Installs \p C as this version's code (release). Writer lock required.
  void publish(std::unique_ptr<ExecutableCode> C) {
    Owner = std::move(C);
    Owner->setObsId(ObsId);
    Code.store(Owner.get(), std::memory_order_release);
    if (obs::traceOn())
      obs::traceEvent(obs::TraceEv::Publish, 0, ObsId, obs::CompileKindFn);
  }

  /// Retires the code, returning ownership. Every retire site — the deopt
  /// handler, the reopt sampling path, background replacements racing a
  /// blacklist — hands the result to Vm::toGraveyard, which stamps the
  /// retire epoch the dispatch-boundary safepoint reclaims by (activations
  /// may still be on the stack, even across later dispatches under
  /// recursion). Writer lock required.
  std::unique_ptr<ExecutableCode> retire() {
    Code.store(nullptr, std::memory_order_release);
    return std::move(Owner);
  }

private:
  std::atomic<ExecutableCode *> Code{nullptr};
  std::unique_ptr<ExecutableCode> Owner;
};

/// Per-function dispatch table over context-specialized versions.
class VersionTable {
public:
  VersionTable() = default;
  VersionTable(const VersionTable &) = delete;
  VersionTable &operator=(const VersionTable &) = delete;

  /// First live entry callable from \p Ctx (most specialized first), or
  /// null. Blacklisted/retired entries never match. Lock-free.
  FnVersion *dispatch(const CallContext &Ctx);

  /// Entry compiled for exactly \p Ctx (live or retired), or null.
  FnVersion *exact(const CallContext &Ctx);

  /// Creates a bookkeeping entry for \p Ctx (the caller publishes code
  /// into it). Returns null when the specialized-entry bound is reached;
  /// the generic root always fits. Requires a live VersionWriteGuard.
  FnVersion *insert(const CallContext &Ctx);

  /// Entry whose executable was prepared from \p Code, or null (e.g.
  /// continuation/OSR-in code). The deopt runtime identifies code by its
  /// LowFunction — the one identity both backends share.
  FnVersion *owner(const LowFunction *Code);

  /// The least specialized live entry (dispatch order is most specialized
  /// first), or null.
  FnVersion *mostGenericLive();

  size_t size() const { return snapshot().size(); }
  size_t liveCount() const;
  /// True when no more *specialized* entries fit (the generic root is
  /// exempt from the bound).
  bool fullFor(const CallContext &Ctx) const;

  uint32_t capacity() const { return Cap; }
  void setCapacity(uint32_t C) { Cap = C; }

  /// Snapshot of the entries in dispatch order (most specialized first).
  std::vector<FnVersion *> entries() const { return snapshot(); }

private:
  friend class VersionWriteGuard;

  const std::vector<FnVersion *> &snapshot() const { return List.read(); }
  bool writerHeld() const {
    return Writer.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }

  /// The published linearization (support/cowlist.h): lock-free acquire
  /// reads, release publication under the writer lock.
  CowList<FnVersion> List;
  uint32_t Cap = 4; ///< bound on specialized entries (Vm::Config::MaxVersions)

  std::mutex WriterMu;
  std::atomic<std::thread::id> Writer{}; ///< single-writer assertion
};

/// RAII writer lock for a VersionTable: serializes insert / publish /
/// retire / blacklist against concurrent publication from compiler
/// threads. Lookups never take it.
class VersionWriteGuard {
public:
  explicit VersionWriteGuard(VersionTable &T) : T(T), L(T.WriterMu) {
    T.Writer.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }
  ~VersionWriteGuard() {
    T.Writer.store(std::thread::id(), std::memory_order_relaxed);
  }
  VersionWriteGuard(const VersionWriteGuard &) = delete;
  VersionWriteGuard &operator=(const VersionWriteGuard &) = delete;

private:
  VersionTable &T;
  std::unique_lock<std::mutex> L;
};

} // namespace rjit

#endif // RJIT_DISPATCH_VERSION_H
