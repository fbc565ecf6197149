//===-- compile/service.h - One tier-up path ---------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one tier-up path. Each compile kind has one request: whole-function
/// versions, OSR-in continuations and deoptless continuations, each
/// publishing into its own instance of the code table (dispatch/table.h).
/// Every request first checks what a compile could add: a failure-marked
/// entry or a full table refuses, live code is already published.
/// Otherwise it runs the kind's job body:
///
///  * without a pool (synchronous tier-up, the default), now, on the
///    executor, against live feedback — the continuation's repaired root
///    profile is the only override;
///  * with a pool (Vm::Config::BackgroundCompile), later, on a compiler
///    thread, under a feedback snapshot the request captures now.
///
/// Either way the body publishes through one step shared by every kind:
/// under the table's writer lock, code for a failure-marked or live entry
/// (a lost race) or for a full table is discarded, and so is code that
/// folded global builtins in an epoch a rebinding has since left
/// (runtime/context.h); a failed compile sets the failure mark. The
/// caller simply dispatches whatever is published after the request
/// returns, and drainCompiles() is exactly "the synchronous result,
/// later".
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
#include "dispatch/context.h"
#include "dispatch/table.h"
#include "exec/backend.h"
#include "osr/osrin.h"

#include <cstdint>

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
/// root), compiles it, and publishes the code into \p Table. Thread-safe:
/// runs on the executor (synchronous requests, Vm::compileFunction) or a
/// compiler thread (under the job's SnapshotScope). Returns the entry, or
/// null when no version can be produced. A publication that loses the
/// race against guard-failure blacklisting discards its code.
FnVersion *compileAndPublishVersion(Function *Fn, const CallContext &Ctx,
                                    CodeTable<CallContext> &Table,
                                    const VersionCompileOpts &Opts);

/// What a compile request did: the code is published (the caller can
/// dispatch to it now), a compile is pending on the pool (queued or in
/// flight), or the request was refused (a failure mark, a full table or
/// queue, or an uncompilable state).
enum class CompileStatus : uint8_t { Published, Pending, Refused };

/// Requests the version of (\p Fn, \p Ctx) in \p Table: the context
/// resolves as in compileAndPublishVersion, which is the job's body.
CompileStatus requestVersionCompile(CompilerPool *Pool, Function *Fn,
                                    const CallContext &Ctx,
                                    CodeTable<CallContext> &Table,
                                    const VersionCompileOpts &Opts);

/// Requests the OSR-in continuation for \p Entry in \p Table, under the
/// key OsrKey(Entry). \p Opts carries the full optimizer knob set
/// (inlining, loop opts, verification) the job compiles under.
CompileStatus requestOsrCompile(CompilerPool *Pool, Function *Fn,
                                const EntryState &Entry,
                                CodeTable<OsrKey> &Table,
                                const OptOptions &Opts);

/// Requests a deoptless continuation for \p Ctx in \p Table. The profile
/// repair (paper §4.3) runs on the executor, which owns the live feedback
/// it reads: now, or at enqueue time, shipped in the snapshot.
CompileStatus requestContinuationCompile(CompilerPool *Pool, Function *Fn,
                                         const DeoptContext &Ctx,
                                         CodeTable<DeoptContext> &Table,
                                         bool FeedbackCleanup,
                                         const OptOptions &Opts);

} // namespace rjit

#endif // RJIT_COMPILE_SERVICE_H
