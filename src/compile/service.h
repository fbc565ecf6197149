//===-- compile/service.h - One tier-up path ---------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one tier-up path. Each compile kind has one request: whole-function
/// versions, OSR-in continuations and deoptless continuations. A request
/// first checks what a compile could add (a full table, a failure marker,
/// a version already live) and refuses when nothing. Otherwise it runs the
/// kind's job body:
///
///  * without a pool (synchronous tier-up, the default), now, on the
///    executor, against live feedback — the continuation's repaired root
///    profile is the only override;
///  * with a pool (Vm::Config::BackgroundCompile), later, on a compiler
///    thread, under a feedback snapshot the request captures now.
///
/// Either way the body publishes into the same table, so the caller
/// simply dispatches whatever is published after the request returns,
/// and drainCompiles() is exactly "the synchronous result, later".
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

/// The version job's body: resolves which context to (re)compile
/// (blacklisted / unplaceable specializations fall back to the generic
/// root), compiles it, and publishes the code into \p Table under its
/// writer lock. Thread-safe: runs on the executor (synchronous requests,
/// Vm::compileFunction) or a compiler thread (under the job's
/// SnapshotScope). Returns the entry, or null when no version can be
/// produced. A publication that loses the race against
/// guard-failure blacklisting discards its code.
FnVersion *compileAndPublishVersion(Function *Fn, const CallContext &Ctx,
                                    VersionTable &Table,
                                    const VersionCompileOpts &Opts);

/// What a compile request did: the code is published (the caller can
/// dispatch to it now), a compile is pending on the pool (queued or in
/// flight), or the request was refused (a failure marker, a full table or
/// queue, or an uncompilable state).
enum class CompileStatus : uint8_t { Published, Pending, Refused };

/// Published OSR-in continuations of one function, keyed by (pc, exact
/// entry-type signature). An entry with null code is the failure marker:
/// the signature is uncompilable, stop requesting it. Only the executor
/// looks entries up and drops them; compiler threads publish. Every
/// operation takes the cache's mutex, which the executor takes once per
/// hot backedge, so the cache holds exactly its live entries.
class OsrCache {
public:
  OsrCache() = default;
  OsrCache(const OsrCache &) = delete;
  OsrCache &operator=(const OsrCache &) = delete;

  struct Hit {
    bool Found = false;
    ExecutableCode *Code = nullptr; ///< null when Found: the failure marker
  };

  Hit lookup(int32_t Pc, const std::vector<uint32_t> &Sig) const;
  /// Publishes \p Code (null: the failure marker) unless the cache is full
  /// or (Pc, Sig) is already published; returns whether it was stored.
  bool publish(int32_t Pc, std::vector<uint32_t> Sig,
               std::unique_ptr<ExecutableCode> Code);
  bool full() const;
  size_t size() const;

  /// Drops the entry owning \p Code (its guard failed: the speculation is
  /// stale, and the next hot backedge must recompile from fresh feedback)
  /// and returns the code, or null when \p Code is not cached. The failing
  /// activation is still executing it: the Vm hands it to its graveyard.
  std::unique_ptr<ExecutableCode> invalidate(const LowFunction *Code);

private:
  struct Entry {
    int32_t Pc;
    std::vector<uint32_t> Sig;
    std::unique_ptr<ExecutableCode> Code;
  };
  static constexpr size_t Cap = 8; ///< signatures per function
  mutable std::mutex Mu;
  std::vector<Entry> Entries;
};

/// The exact type signature of an OSR entry state (stack types, then
/// (symbol, type) bindings): the OsrCache key.
std::vector<uint32_t> osrSignature(const EntryState &Entry);

/// Requests the version of (\p Fn, \p Ctx) in \p Table: the context
/// resolves as in compileAndPublishVersion, which is the job's body. A
/// blacklisted resolution is refused, a live one is already published.
CompileStatus requestVersionCompile(CompilerPool *Pool, Function *Fn,
                                    const CallContext &Ctx,
                                    VersionTable &Table,
                                    const VersionCompileOpts &Opts);

/// Requests the OSR-in continuation for \p Entry in \p Cache. \p Opts
/// carries the full optimizer knob set (inlining, loop opts,
/// verification) the job compiles under. A failed compile publishes the
/// failure marker.
CompileStatus requestOsrCompile(CompilerPool *Pool, Function *Fn,
                                const EntryState &Entry, OsrCache &Cache,
                                const OptOptions &Opts);

/// Requests a deoptless continuation for \p Ctx in \p Table, refused when
/// the table is full. The profile repair (paper §4.3) runs on the
/// executor, which owns the live feedback it reads: now, or at enqueue
/// time, shipped in the snapshot.
CompileStatus requestContinuationCompile(CompilerPool *Pool, Function *Fn,
                                         const DeoptContext &Ctx,
                                         DeoptlessTable &Table,
                                         bool FeedbackCleanup,
                                         const OptOptions &Opts);

} // namespace rjit

#endif // RJIT_COMPILE_SERVICE_H
