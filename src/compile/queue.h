//===-- compile/queue.h - Deduplicated compile-request queue -----*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bounded, deduplicated MPMC queue between executor threads and the
/// compiler pool. Executors push CompileJobs keyed by (owner, function,
/// kind, detail); a key stays *pending* from enqueue until the job's
/// publication completes, so re-requests arriving while the compile is in
/// flight are absorbed instead of duplicating work — the JKind-style
/// coordination where independent workers publish into shared stores and
/// requesters only ever observe "pending" or "done".
///
/// Backpressure is a bounded deque: a full queue rejects the push and the
/// executor simply keeps running baseline code (tier-up is an optimization,
/// never an obligation).
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_COMPILE_QUEUE_H
#define RJIT_COMPILE_QUEUE_H

#include "obs/trace.h"
#include "support/fnv.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <unordered_set>

namespace rjit {

class ExecContext;

/// Identity of a request, the dedup unit. Owner, the requesting Vm's
/// context, scopes drain barriers to one Vm of a shared pool and is
/// charged the request's queue depth, wait and run (null: the caller's).
struct CompileKey {
  ExecContext *Owner = nullptr;
  const void *Fn = nullptr;
  CompileKind Kind = CompileKind::Function;
  uint64_t Detail = 0; ///< context / entry-state hash

  bool operator==(const CompileKey &O) const {
    return Owner == O.Owner && Fn == O.Fn && Kind == O.Kind &&
           Detail == O.Detail;
  }
};

struct CompileKeyHash {
  size_t operator()(const CompileKey &K) const {
    FnvHasher H;
    H.mix(reinterpret_cast<uintptr_t>(K.Owner));
    H.mix(reinterpret_cast<uintptr_t>(K.Fn));
    H.mix(static_cast<uint64_t>(K.Kind));
    H.mix(K.Detail);
    return static_cast<size_t>(H.H);
  }
};

/// One queued request: its identity plus a self-contained thunk. The thunk
/// must capture everything it needs (snapshot, target table, knobs) — it
/// runs on an arbitrary thread and must not reach for thread-local VM
/// state.
struct CompileJob {
  CompileKey Key;
  std::function<void()> Run;
  uint64_t EnqueueNs = 0; ///< stamped by push(); the pool derives the
                          ///< queue-wait latency (obs) from it
};

class CompileQueue {
public:
  explicit CompileQueue(size_t Capacity = 256) : Cap(Capacity) {}

  enum class Push : uint8_t { Enqueued, Duplicate, Full, Shutdown };

  /// Enqueues \p J unless its key is already pending (queued or running)
  /// or the queue is at capacity.
  Push push(CompileJob J);

  /// Blocking pop for pool workers; false on shutdown with an empty
  /// queue. The popped key stays pending until complete().
  bool pop(CompileJob &J);

  /// Non-blocking pop (inline draining / tests).
  bool tryPop(CompileJob &J);

  /// Releases \p K's dedup reservation after the job ran; wakes drain
  /// barriers.
  void complete(const CompileKey &K);

  /// True while a request with this key is queued or running.
  bool pending(const CompileKey &K) const;

  size_t depth() const; ///< queued (not yet popped) requests

  /// Blocks until no request whose Owner is \p Owner (or any request,
  /// when null) is queued or running. Callers that own a 0-thread pool
  /// must drain via tryPop first — this only waits.
  void waitIdle(const ExecContext *Owner = nullptr) const;

  /// Wakes workers; subsequent pushes are rejected, pops drain the rest.
  void shutdown();

private:
  bool anyFor(const ExecContext *Owner) const; ///< Mu held

  mutable std::mutex Mu;
  std::condition_variable Work;
  mutable std::condition_variable Idle;
  std::deque<CompileJob> Q;
  std::unordered_set<CompileKey, CompileKeyHash> Pending; ///< queued+running
  size_t Cap;
  bool Down = false;
};

} // namespace rjit

#endif // RJIT_COMPILE_QUEUE_H
