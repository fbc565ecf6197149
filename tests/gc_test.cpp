//===-- tests/gc_test.cpp - Heap cycle collector tests --------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
// The cycle collector's contract, bottom-up: the registry-level trial
// deletion reclaims hand-built cycles (runtime/gcheap.h), the Vm reclaims
// the Env↔closure cycle every nested function definition creates — mid-run
// at the dispatch-boundary safepoint, not just at teardown — and collection
// is observably inert (identical transcripts with GC on or off).
//
//===----------------------------------------------------------------------===//

#include "runtime/context.h"
#include "runtime/env.h"
#include "support/interner.h"
#include "support/stats.h"
#include "vm/vm.h"

#include <gtest/gtest.h>

#include <string>

using namespace rjit;

namespace {

/// Installs an execution context, and so a registry, for the test's scope
/// (tests run without a Vm, so no heap is active unless we say so).
class ScopedHeap {
public:
  ScopedHeap() : Scope(Ctx) {}
  ~ScopedHeap() { Ctx.heap()->orphanAll(); }
  GcHeap &heap() { return *Ctx.heap(); }

private:
  ExecContext Ctx;
  ContextScope Scope;
};

//===----------------------------------------------------------------------===//
// Registry-level trial deletion

TEST(GcHeap, SelfCycleReclaimedByCollect) {
  ScopedHeap S;
  uint64_t Before = heapStats().LiveBytes.load();

  Env *E = new Env(nullptr);
  E->retain();
  // The smallest possible cycle: an environment binding itself.
  E->set(symbol("self"), Value::environment(E));
  EXPECT_EQ(S.heap().size(), 1u);
  E->release(); // drop the only external handle

  // Refcounting alone can never free this (the binding still holds a ref).
  EXPECT_EQ(S.heap().size(), 1u);
  EXPECT_GT(heapStats().LiveBytes.load(), Before);

  GcHeap::CollectStats R = S.heap().collect();
  EXPECT_EQ(R.Collected, 1u);
  EXPECT_EQ(S.heap().size(), 0u);
  EXPECT_EQ(heapStats().LiveBytes.load(), Before);
}

TEST(GcHeap, EnvListCycleReclaimed) {
  ScopedHeap S;
  uint64_t Before = heapStats().LiveBytes.load();

  Env *E = new Env(nullptr);
  E->retain();
  // Two-object cycle through a generic list: E -> list -> E.
  E->set(symbol("l"), Value::list({Value::environment(E)}));
  EXPECT_EQ(S.heap().size(), 2u);
  E->release();

  GcHeap::CollectStats R = S.heap().collect();
  EXPECT_EQ(R.Collected, 2u);
  EXPECT_EQ(S.heap().size(), 0u);
  EXPECT_EQ(heapStats().LiveBytes.load(), Before);
}

TEST(GcHeap, ExternallyHeldObjectsSurvive) {
  ScopedHeap S;

  // A live chain: our stack Value is the external root.
  Env *Parent = new Env(nullptr);
  Value Handle = Value::adopt(Tag::EnvTag, Parent);
  Env *Child = new Env(Parent);
  Child->retain();
  Parent->set(symbol("child"), Value::environment(Child));
  Child->release(); // Child now held only via Parent; Parent via Handle

  GcHeap::CollectStats R = S.heap().collect();
  EXPECT_EQ(R.Collected, 0u) << "collector freed externally reachable state";
  EXPECT_EQ(S.heap().size(), 2u);

  // Drop the root: the pair is now an unreachable cycle (the binding holds
  // Child, Child's parent pointer holds Parent), so refcounting alone
  // cannot free it — the next pass can.
  Handle = Value();
  EXPECT_EQ(S.heap().size(), 2u);
  EXPECT_EQ(S.heap().collect().Collected, 2u);
  EXPECT_EQ(S.heap().size(), 0u);
}

//===----------------------------------------------------------------------===//
// Vm-level: the Env↔closure cycle, reclaimed mid-run

// Every mk(i) call binds a fresh closure in its own call environment and
// the closure captures that environment: one Env↔ClosObj cycle becomes
// garbage per loop iteration, *while* churn's loop is still running — the
// shape the dispatch-boundary safepoint must keep bounded.
constexpr const char *ChurnDef = R"(
mk <- function(i) {
  helper <- function(x) x + i
  helper(i)
}
churn <- function(n) {
  s <- 0L
  for (i in 1:n) s <- s + mk(i)
  s
}
)";

TEST(GcVm, ClosureCycleReclaimedMidRun) {
  Vm V;
  V.eval(ChurnDef);
  EXPECT_EQ(V.eval("churn(10L)").asIntUnchecked(), 110);
  V.collectHeap();
  uint64_t Baseline = heapStats().LiveBytes.load();

  // Each mk() call leaks one call-Env↔helper-ClosObj cycle under pure
  // refcounting: the env binds the closure, the closure captures the env.
  for (int K = 0; K < 8; ++K)
    EXPECT_EQ(V.eval("churn(10L)").asIntUnchecked(), 110);
  EXPECT_GT(heapStats().LiveBytes.load(), Baseline);

  // Mid-run reclaim: the Vm is alive and keeps answering afterwards.
  uint64_t Freed = V.collectHeap();
  EXPECT_GT(Freed, 0u);
  EXPECT_EQ(heapStats().LiveBytes.load(), Baseline);
  EXPECT_EQ(V.eval("churn(10L)").asIntUnchecked(), 110);
}

TEST(GcVm, SafepointTriggerCollectsMidRun) {
  Vm::Config C;
  C.HeapGc.ThresholdBytes = 8 * 1024;
  Vm V(C); // ctor resets stats
  V.eval(ChurnDef);
  uint64_t Before = stats().GcCollections.load();
  // 4000 helper dispatches allocate well past the 8 KiB trigger, so the
  // dispatch-boundary safepoint must have collected while the loop ran.
  EXPECT_EQ(V.eval("churn(4000L)").asIntUnchecked(), 4000 * 4001);
  EXPECT_GT(stats().GcCollections.load(), Before);
  EXPECT_GT(stats().GcFreedBytes.load(), 0u);
}

TEST(GcVm, LiveBytesPlateausUnderChurn) {
  Vm::Config C;
  C.HeapGc.ThresholdBytes = 8 * 1024;
  Vm V(C);
  V.eval(ChurnDef);
  V.eval("churn(500L)");
  V.collectHeap();
  uint64_t Plateau = heapStats().LiveBytes.load();
  // Sustained churn with safepoint collection stays at the plateau
  // (each eval can pin at most one uncollected cycle + module growth).
  for (int K = 0; K < 10; ++K)
    V.eval("churn(500L)");
  V.collectHeap();
  EXPECT_LE(heapStats().LiveBytes.load(), Plateau + 4 * 1024);
}

TEST(GcVm, TeardownCollectsEvenWhenDisabled) {
  uint64_t Before = heapStats().LiveBytes.load();
  {
    Vm::Config C;
    C.HeapGc.Enabled = false;
    Vm V(C);
    V.eval(ChurnDef);
    uint64_t Mid = heapStats().LiveBytes.load();
    for (int K = 0; K < 8; ++K)
      V.eval("churn(10L)");
    // No mid-run collection: the cycles pile up...
    EXPECT_GT(heapStats().LiveBytes.load(), Mid);
  }
  // ...but teardown always runs the final pass, so nothing outlives the Vm
  // (this is what lets the leak-checked ASan job run without suppressions).
  EXPECT_EQ(heapStats().LiveBytes.load(), Before);
}

TEST(GcVm, TranscriptIdenticalOnAndOff) {
  auto Run = [](bool Gc) {
    Vm::Config C;
    C.HeapGc.Enabled = Gc;
    C.HeapGc.ThresholdBytes = 4 * 1024; // collect aggressively when on
    Vm V(C);
    V.eval(ChurnDef);
    std::string Out;
    for (int K = 1; K <= 6; ++K)
      Out += V.eval("churn(" + std::to_string(100 * K) + "L)").show() + ";";
    Out += V.eval("v <- c(1, 2, 3)\nv[[8]] <- 9\nv").show();
    return Out;
  };
  EXPECT_EQ(Run(true), Run(false));
}

} // namespace
