//===-- compile/pool.cpp - Compiler thread pool ---------------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "compile/pool.h"
#include "obs/trace.h"
#include "runtime/context.h"
#include "support/timer.h"

#include <cassert>

using namespace rjit;

CompilerPool::CompilerPool(unsigned Threads) {
  Ws.reserve(Threads);
  for (unsigned K = 0; K < Threads; ++K)
    Ws.emplace_back([this] { workerLoop(); });
}

CompilerPool::~CompilerPool() {
  Q.shutdown();
  for (std::thread &W : Ws)
    W.join();
  // 0-thread pools may still hold queued jobs nobody drained; their
  // reservations die with the queue.
}

void CompilerPool::runJob(CompileJob &J) {
  ExecContext &Owner = contextOr(J.Key.Owner);
  ++Owner.Stats.AsyncCompiles;
  uint64_t T0 = nowNanos();
  uint64_t Wait = J.EnqueueNs ? T0 - J.EnqueueNs : 0;
  Owner.Metrics.QueueWait.record(Wait);
  // A compile failure surfaces as "no version published" (the executor
  // keeps running baseline); a throwing job must not take the worker
  // down with it.
  try {
    J.Run();
  } catch (...) {
    assert(false && "compile job threw");
  }
  if (obs::traceOn())
    obs::traceEvent(obs::TraceEv::CompileJob, nowNanos() - T0, Wait,
                    static_cast<uint64_t>(J.Key.Kind));
}

void CompilerPool::workerLoop() {
  CompileJob J;
  while (Q.pop(J)) {
    runJob(J);
    Q.complete(J.Key);
    J.Run = nullptr; // drop captures (snapshots) promptly
  }
}

void CompilerPool::drain(const ExecContext *Owner) {
  if (Ws.empty()) {
    CompileJob J;
    while (Q.tryPop(J)) {
      runJob(J);
      Q.complete(J.Key);
      J.Run = nullptr;
    }
  }
  Q.waitIdle(Owner);
}
