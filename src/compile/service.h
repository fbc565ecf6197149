//===-- compile/service.h - Background compilation service -------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile entry points shared by synchronous and background tier-up,
/// plus the request (enqueue) side of the background subsystem:
///
///  * compileAndPublishVersion() — resolve / compile / atomically publish
///    one whole-function version. The Vm calls it inline today; a
///    background job calls the *same* function under a SnapshotScope, so
///    the two modes cannot drift apart (and drainCompiles() is exactly
///    "the synchronous result, later").
///  * requestVersionCompile / requestOsrCompile /
///    requestContinuationCompile — capture a feedback snapshot on the
///    executor thread, build a self-contained job and push it (deduped)
///    onto a pool's queue. All return true when a compile is pending
///    (newly enqueued or already in flight) — the executor then simply
///    keeps running baseline code.
///  * OsrCache — published OSR-in continuations. Synchronous OSR-in
///    compiles a one-shot continuation from the live interpreter state;
///    background OSR-in instead compiles for the *type signature* of the
///    hot state and caches the code, and later activations whose state
///    matches enter it without ever pausing.
///
/// This layer deliberately knows nothing about the Vm: jobs capture plain
/// pointers (function, target table) and knob copies, never thread-local
/// VM state. The requester is only its context, OptOptions::Ctx: the
/// request's key owner and what the compile's counters are charged to.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_COMPILE_SERVICE_H
#define RJIT_COMPILE_SERVICE_H

#include "compile/pool.h"
#include "dispatch/version.h"
#include "exec/backend.h"
#include "osr/deoptless.h"
#include "support/cowlist.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace rjit {

/// Knobs a whole-function version compile needs (copied out of Vm::Config
/// so jobs never touch the Vm).
struct VersionCompileOpts {
  /// The optimizer knob set (Vm::optView). Its Backend is the
  /// execution backend the code is prepared for; backends are thread-safe,
  /// so jobs call prepare() from compiler threads.
  OptOptions Opt;
  /// feedbackHash flavor: include call-site contexts (ContextDispatch).
  bool HashWithContexts = false;
};

/// Resolves which context to (re)compile (blacklisted / unplaceable
/// specializations fall back to the generic root), compiles it, and
/// publishes the code into \p Table under its writer lock. Thread-safe:
/// callable from the executor (synchronous mode) or a compiler thread
/// (under the job's SnapshotScope). Returns the entry, or null when no
/// version can be produced. A publication that loses the race against
/// guard-failure blacklisting discards its code.
FnVersion *compileAndPublishVersion(Function *Fn, const CallContext &Ctx,
                                    VersionTable &Table,
                                    const VersionCompileOpts &Opts);

/// Published OSR-in continuations of one function, keyed by (pc, exact
/// entry-type signature). Lookup is lock-free (copy-on-write snapshot);
/// publication is serialized internally. An entry with null code is a
/// failure marker: the signature is uncompilable, stop requesting it.
class OsrCache {
public:
  OsrCache() = default;
  OsrCache(const OsrCache &) = delete;
  OsrCache &operator=(const OsrCache &) = delete;

  struct Entry {
    int32_t Pc;
    std::vector<uint32_t> Sig;
    std::unique_ptr<ExecutableCode> Code; ///< null: compile failed
  };

  struct Hit {
    bool Found = false;
    ExecutableCode *Code = nullptr;
  };

  Hit lookup(int32_t Pc, const std::vector<uint32_t> &Sig) const;
  void publish(int32_t Pc, std::vector<uint32_t> Sig,
               std::unique_ptr<ExecutableCode> Code);
  bool full() const;
  size_t size() const { return List.read().size(); }

  /// Drops the entry owning \p Code from the cache (its guard failed:
  /// the speculation is stale, and the next hot backedge must recompile
  /// from fresh feedback, like the synchronous hook would). Returns true
  /// when \p Code was a cached continuation. The code itself is retained
  /// — the failing activation is still executing it.
  bool invalidate(const LowFunction *Code);

private:
  static constexpr size_t Cap = 8; ///< signatures per function
  CowList<Entry> List;
  std::mutex WriterMu;
};

/// The exact type signature of an OSR entry state (stack types, then
/// (symbol, type) bindings): the OsrCache key.
std::vector<uint32_t> osrSignature(const EntryState &Entry);

/// Dedup hashes for request keys.
uint64_t hashCallContext(const CallContext &Ctx);
uint64_t hashDeoptContext(const DeoptContext &Ctx);
uint64_t hashOsrSignature(int32_t Pc, const std::vector<uint32_t> &Sig);

/// Requests a background whole-function compile of (\p Fn, \p Ctx) into
/// \p Table. Captures the feedback snapshot now; returns true when a
/// compile is pending (enqueued or already in flight), false on
/// queue-full backpressure.
bool requestVersionCompile(CompilerPool &Pool, Function *Fn,
                           const CallContext &Ctx, VersionTable *Table,
                           const VersionCompileOpts &Opts);

/// Requests a background OSR-in compile for \p Entry into \p Cache.
/// \p Opts carries the full optimizer knob set (inlining, loop opts,
/// verification) the job compiles under.
bool requestOsrCompile(CompilerPool &Pool, Function *Fn,
                       const EntryState &Entry, OsrCache *Cache,
                       const OptOptions &Opts);

/// Requests a background deoptless-continuation compile for \p Ctx into
/// \p Table. The profile repair (paper §4.3) runs now, on the executor —
/// it reads live feedback — and ships with the snapshot.
bool requestContinuationCompile(CompilerPool &Pool, Function *Fn,
                                const DeoptContext &Ctx,
                                DeoptlessTable *Table, bool FeedbackCleanup,
                                const OptOptions &Opts);

} // namespace rjit

#endif // RJIT_COMPILE_SERVICE_H
