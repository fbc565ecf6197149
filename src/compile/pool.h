//===-- compile/pool.h - Compiler thread pool --------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size pool of compiler threads consuming the compile queue.
/// Workers pop a job, run its thunk (which compiles from the job's
/// feedback snapshot and publishes atomically into the owning tables) and
/// release the dedup reservation.
///
/// The embedder owns every pool and hands it to each Vm that compiles in
/// the background (Vm::Config::Pool), so a pool outlives its Vms and may be
/// shared by several; drain(owner) scopes the barrier to one Vm's requests
/// so concurrent executors do not wait on each other's backlogs.
///
/// A pool constructed with zero threads runs jobs only inside drain(), on
/// the draining thread, in FIFO order — the deterministic mode the
/// compile-queue tests and the drainCompiles() determinism guarantee rest
/// on.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_COMPILE_POOL_H
#define RJIT_COMPILE_POOL_H

#include "compile/queue.h"

#include <thread>
#include <vector>

namespace rjit {

class CompilerPool {
public:
  explicit CompilerPool(unsigned Threads = 2);
  ~CompilerPool();
  CompilerPool(const CompilerPool &) = delete;
  CompilerPool &operator=(const CompilerPool &) = delete;

  CompileQueue &queue() { return Q; }

  /// Barrier: returns once no request of \p Owner (or none at all, when
  /// null) is queued or running. With zero worker threads, queued jobs
  /// (all of them — jobs are self-contained, so running another owner's
  /// job here is safe) execute inline first.
  void drain(const ExecContext *Owner = nullptr);

private:
  void workerLoop();
  static void runJob(CompileJob &J);

  CompileQueue Q;
  std::vector<std::thread> Ws;
};

} // namespace rjit

#endif // RJIT_COMPILE_POOL_H
