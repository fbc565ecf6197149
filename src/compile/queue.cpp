//===-- compile/queue.cpp - Deduplicated compile-request queue -----------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "compile/queue.h"
#include "runtime/context.h"
#include "support/timer.h"

using namespace rjit;

CompileQueue::Push CompileQueue::push(CompileJob J) {
  std::lock_guard<std::mutex> L(Mu);
  if (Down)
    return Push::Shutdown;
  if (Pending.count(J.Key))
    return Push::Duplicate;
  if (Q.size() >= Cap)
    return Push::Full;
  Pending.insert(J.Key);
  J.EnqueueNs = nowNanos();
  contextOr(J.Key.Owner).Stats.CompileQueueDepth.add();
  Q.push_back(std::move(J));
  Work.notify_one();
  return Push::Enqueued;
}

bool CompileQueue::pop(CompileJob &J) {
  std::unique_lock<std::mutex> L(Mu);
  Work.wait(L, [this] { return Down || !Q.empty(); });
  if (Q.empty())
    return false;
  J = std::move(Q.front());
  Q.pop_front();
  contextOr(J.Key.Owner).Stats.CompileQueueDepth.sub();
  // The key stays in Pending: the request is running, not done.
  return true;
}

bool CompileQueue::tryPop(CompileJob &J) {
  std::lock_guard<std::mutex> L(Mu);
  if (Q.empty())
    return false;
  J = std::move(Q.front());
  Q.pop_front();
  contextOr(J.Key.Owner).Stats.CompileQueueDepth.sub();
  return true;
}

void CompileQueue::complete(const CompileKey &K) {
  std::lock_guard<std::mutex> L(Mu);
  Pending.erase(K);
  Idle.notify_all();
}

bool CompileQueue::pending(const CompileKey &K) const {
  std::lock_guard<std::mutex> L(Mu);
  return Pending.count(K) != 0;
}

size_t CompileQueue::depth() const {
  std::lock_guard<std::mutex> L(Mu);
  return Q.size();
}

bool CompileQueue::anyFor(const ExecContext *Owner) const {
  if (!Owner)
    return !Pending.empty();
  for (const CompileKey &K : Pending)
    if (K.Owner == Owner)
      return true;
  return false;
}

void CompileQueue::waitIdle(const ExecContext *Owner) const {
  std::unique_lock<std::mutex> L(Mu);
  Idle.wait(L, [this, Owner] { return !anyFor(Owner); });
}

void CompileQueue::shutdown() {
  std::lock_guard<std::mutex> L(Mu);
  Down = true;
  Work.notify_all();
}
