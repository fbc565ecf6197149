//===-- tests/compile_queue_test.cpp - Background compilation -------------------===//
//
// The compile queue / pool / publication discipline of the background
// tier-up subsystem (src/compile/):
//
//  * request dedup: identical pending requests collapse, and the dedup
//    window spans the whole job lifetime (queued AND running);
//  * bounded-queue backpressure: a full queue rejects, it never blocks;
//  * snapshot isolation: a job compiles from the feedback captured at
//    enqueue time even while the interpreter keeps writing the profile;
//  * publication vs. guard-failure blacklisting: a compile that loses the
//    race against a blacklist discards its code;
//  * drainCompiles() determinism: with a zero-thread pool, background mode
//    is the synchronous result, later — bit-identical stats included.
//
//===----------------------------------------------------------------------===//

#include "compile/pool.h"
#include "compile/service.h"
#include "compile/snapshot.h"
#include "support/stats.h"
#include "vm/vm.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

using namespace rjit;

namespace {

CompileJob noopJob(ExecContext *Owner, const void *Fn, uint64_t Detail) {
  return CompileJob{CompileKey{Owner, Fn, CompileKind::Function, Detail},
                    [] {}};
}

Function *functionNamed(Vm &V, const std::string &Name) {
  Value F = V.eval(Name);
  EXPECT_EQ(F.tag(), Tag::Clos);
  return F.closObj()->Fn;
}

/// Background compilation on \p Pool, which the caller declares before
/// the Vm so it outlives it.
Vm::Config backgroundCfg(CompilerPool &Pool) {
  Vm::Config C;
  C.CompileThreshold = 2;
  C.OsrThreshold = 100;
  C.Pool = &Pool;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Queue discipline

TEST(CompileQueue, DedupsIdenticalPendingRequests) {
  CompileQueue Q(8);
  ExecContext Owner;
  int Fn;
  EXPECT_EQ(Q.push(noopJob(&Owner, &Fn, 7)), CompileQueue::Push::Enqueued);
  EXPECT_EQ(Q.push(noopJob(&Owner, &Fn, 7)), CompileQueue::Push::Duplicate);
  // A different detail (context) is a different request.
  EXPECT_EQ(Q.push(noopJob(&Owner, &Fn, 8)), CompileQueue::Push::Enqueued);
  EXPECT_EQ(Q.depth(), 2u);
}

TEST(CompileQueue, DedupWindowSpansRunningJobs) {
  CompileQueue Q(8);
  ExecContext Owner;
  int Fn;
  ASSERT_EQ(Q.push(noopJob(&Owner, &Fn, 1)), CompileQueue::Push::Enqueued);
  CompileJob J;
  ASSERT_TRUE(Q.tryPop(J));
  EXPECT_EQ(Q.depth(), 0u);
  EXPECT_TRUE(Q.pending(J.Key)) << "a popped job is running, not done";
  // Re-requests while the compile is in flight are still absorbed: the
  // publication has not happened, so a second compile would be wasted.
  EXPECT_EQ(Q.push(noopJob(&Owner, &Fn, 1)), CompileQueue::Push::Duplicate);
  Q.complete(J.Key);
  EXPECT_FALSE(Q.pending(J.Key));
  EXPECT_EQ(Q.push(noopJob(&Owner, &Fn, 1)), CompileQueue::Push::Enqueued);
}

TEST(CompileQueue, FullQueueExertsBackpressure) {
  CompileQueue Q(2);
  ExecContext Owner;
  int Fn;
  EXPECT_EQ(Q.push(noopJob(&Owner, &Fn, 1)), CompileQueue::Push::Enqueued);
  EXPECT_EQ(Q.push(noopJob(&Owner, &Fn, 2)), CompileQueue::Push::Enqueued);
  EXPECT_EQ(Q.push(noopJob(&Owner, &Fn, 3)), CompileQueue::Push::Full)
      << "the executor must get a rejection, never a stall";
  // Draining one slot re-admits requests.
  CompileJob J;
  ASSERT_TRUE(Q.tryPop(J));
  Q.complete(J.Key);
  EXPECT_EQ(Q.push(noopJob(&Owner, &Fn, 3)), CompileQueue::Push::Enqueued);
}

TEST(CompileQueue, OwnerScopedIdleBarrier) {
  CompileQueue Q(8);
  ExecContext OwnerA, OwnerB;
  int Fn;
  ASSERT_EQ(Q.push(noopJob(&OwnerA, &Fn, 1)), CompileQueue::Push::Enqueued);
  // B has nothing in flight: its barrier returns immediately even though
  // A's request is queued.
  Q.waitIdle(&OwnerB);
  CompileJob J;
  ASSERT_TRUE(Q.tryPop(J));
  Q.complete(J.Key);
  Q.waitIdle(&OwnerA);
  Q.waitIdle(); // global barrier
}

//===----------------------------------------------------------------------===//
// Snapshot isolation

TEST(FeedbackSnapshot, CapturesProfileAtEnqueueTime) {
  Vm::Config C;
  C.Strategy = TierStrategy::BaselineOnly;
  Vm V(C);
  V.eval("f <- function(a) a + 1L");
  V.eval("f(1L)");
  Function *Fn = functionNamed(V, "f");

  uint64_t AtCapture = feedbackHash(*Fn, /*WithContexts=*/true);
  std::shared_ptr<FeedbackSnapshot> Snap = FeedbackSnapshot::capture(Fn);

  // The interpreter keeps profiling (a type phase change) after capture.
  V.eval("f(1.5)");
  uint64_t AfterMutation = feedbackHash(*Fn, true);
  ASSERT_NE(AtCapture, AfterMutation) << "phase change must move the hash";

  // Inside a job's scope, the optimizer sees the snapshot...
  {
    SnapshotScope Scope(*Snap);
    EXPECT_EQ(feedbackHash(*Fn, true), AtCapture);
  }
  // ...and outside it, the live (mutated) profile again.
  EXPECT_EQ(feedbackHash(*Fn, true), AfterMutation);
}

TEST(BackgroundCompile, CompiledVersionReflectsSnapshotNotLiveProfile) {
  // Zero-thread pool: the job runs at drainCompiles(), long after the
  // interpreter mutated the live profile. The published version must
  // still speculate on the *snapshot* profile (int), so a real-typed call
  // afterwards fails the guard — proof the mid-compile mutation was
  // invisible to the job.
  CompilerPool Pool(/*Threads=*/0);
  Vm V(backgroundCfg(Pool));
  V.eval("f <- function(a) {\n  acc <- a\n  for (i in 1:3) acc <- acc + "
         "1L\n  acc\n}");
  V.eval("f(1L)");
  V.eval("f(2L)"); // threshold reached: request enqueued (snapshot: int)
  V.eval("f(2.5)"); // interpreter mutates the profile mid-"compile"
  uint64_t CompilesBefore = stats().Compilations;
  V.drainCompiles();
  EXPECT_EQ(stats().Compilations, CompilesBefore + 1)
      << "drain ran the queued job";

  uint64_t DeoptsBefore = stats().Deopts;
  EXPECT_EQ(V.eval("f(3.5)").show(), "6.5");
  EXPECT_GT(stats().Deopts, DeoptsBefore)
      << "an int-speculating version (from the snapshot) must deopt on a "
         "real argument; a live-profile compile would not speculate";
}

//===----------------------------------------------------------------------===//
// Publication vs. blacklisting

TEST(BackgroundCompile, PublicationLosingBlacklistRaceDiscardsCode) {
  CompilerPool Pool(/*Threads=*/0);
  Vm V(backgroundCfg(Pool));
  V.eval("f <- function(a) a + 1L");
  V.eval("f(1L)");
  V.eval("f(2L)"); // request enqueued
  Function *Fn = functionNamed(V, "f");
  TierState &TS = V.stateFor(Fn);

  // The executor blacklists the root before the compile lands (the
  // deterministic replay of a guard-failure storm during the compile).
  {
    std::lock_guard G(TS.Versions);
    FnVersion *E = TS.Versions.insert(genericContext(1));
    ASSERT_NE(E, nullptr);
    E->Blacklisted = true;
  }

  uint64_t CompilesBefore = stats().Compilations;
  V.drainCompiles(); // the job runs now — and must discard its result
  EXPECT_EQ(TS.Versions.liveCount(), 0u)
      << "no code may be published over a blacklist";
  EXPECT_EQ(stats().Compilations, CompilesBefore)
      << "a discarded publication is not a compilation";
  EXPECT_EQ(V.eval("f(5L)").show(), "6L") << "baseline keeps serving";
}

TEST(SharedPool, CompilesAreChargedToTheRequestingVm) {
  // Two executors share one pool and warm different numbers of
  // functions. The compiler threads charge each compile to the Vm that
  // asked for it, so each Vm's counters match what its own tables
  // published. Both Vms exist before either compiles, and both finish
  // before either reads.
  CompilerPool Pool(/*Threads=*/2);
  std::atomic<int> Built{0}, Done{0};
  auto AwaitAll = [](std::atomic<int> &N) {
    ++N;
    while (N.load() < 2)
      std::this_thread::yield();
  };
  struct Counts {
    uint64_t Compilations = 0, AsyncCompiles = 0, Published = 0;
  } R[2];
  auto Client = [&](int Id) {
    Vm V(backgroundCfg(Pool));
    V.eval("f1 <- function(a) a + 1L\nf2 <- function(a) a + 2L\n"
           "f3 <- function(a) a + 3L");
    AwaitAll(Built);
    const int Fns = Id == 0 ? 1 : 3;
    for (int F = 1; F <= Fns; ++F)
      for (int K = 0; K < 4; ++K)
        V.eval("f" + std::to_string(F) + "(1L)");
    V.drainCompiles();
    AwaitAll(Done);
    R[Id].Compilations = stats().Compilations;
    R[Id].AsyncCompiles = stats().AsyncCompiles;
    for (int F = 1; F <= 3; ++F)
      R[Id].Published +=
          V.stateFor(functionNamed(V, "f" + std::to_string(F)))
              .Versions.liveCount();
  };
  std::thread A(Client, 0), B(Client, 1);
  A.join();
  B.join();
  EXPECT_EQ(R[0].Published, 1u);
  EXPECT_EQ(R[1].Published, 3u);
  for (const Counts &C : R) {
    EXPECT_EQ(C.Compilations, C.Published);
    // A request racing a job that is publishing can add one more job,
    // which finds the version live and publishes nothing.
    EXPECT_GE(C.AsyncCompiles, C.Published);
  }
  EXPECT_LE(R[0].AsyncCompiles, 3u)
      << "client 0 requests at most once per call past the threshold";
}

//===----------------------------------------------------------------------===//
// drainCompiles() determinism

namespace {

/// One deterministic background run: a warmup + phase-change workload with
/// a drain barrier at each phase edge. Returns the transcript.
std::string drainedRun(uint64_t &Compilations, uint64_t &CtxVersions) {
  CompilerPool Pool(/*Threads=*/0);
  Vm::Config C = backgroundCfg(Pool);
  C.Strategy = TierStrategy::Deoptless;
  C.ContextDispatch = true;
  C.Inlining = true;
  Vm V(C);
  V.eval("g <- function(x) x * 2L\n"
         "f <- function(a, b) g(a) + b\n");
  std::string Out;
  for (int K = 0; K < 4; ++K)
    Out += V.eval("f(2L, 3L)").show() + "\n";
  V.drainCompiles();
  for (int K = 0; K < 4; ++K)
    Out += V.eval("f(2.5, 3L)").show() + "\n";
  V.drainCompiles();
  for (int K = 0; K < 4; ++K)
    Out += V.eval("f(2L, 3L)").show() + "\n";
  V.drainCompiles();
  Compilations = stats().Compilations;
  CtxVersions = stats().CtxVersions;
  return Out;
}

} // namespace

TEST(BackgroundCompile, LoopOptsKeepDrainTranscriptsIdentical) {
  // Preheader synthesis must preserve bench-harness determinism: for a
  // guard-free workload (Speculate off, so the loop layer can only move
  // pure instructions and synthesize blocks) the drained transcript is
  // byte-identical with the layer on and off, including the compile
  // schedule the zero-thread pool replays.
  auto Run = [](bool LoopOpts, uint64_t &Compilations) {
    CompilerPool Pool(/*Threads=*/0);
    Vm::Config C = backgroundCfg(Pool);
    C.Speculate = false;
    C.LoopOpts = LoopOpts;
    Vm V(C);
    V.eval("colsum <- function(m, nr, nc) {\n"
           "  s <- 0\n"
           "  for (j in 1:nc)\n"
           "    for (i in 1:nr)\n"
           "      s <- s + m[[(j - 1L) * nr + i]]\n"
           "  s\n"
           "}\n"
           "d <- as.numeric(1:12)\n");
    std::string Out;
    for (int K = 0; K < 4; ++K)
      Out += V.eval("colsum(d, 4L, 3L)").show() + "\n";
    V.drainCompiles();
    for (int K = 0; K < 4; ++K)
      Out += V.eval("colsum(d, 3L, 4L)").show() + "\n";
    V.drainCompiles();
    Compilations = stats().Compilations;
    return Out;
  };
  uint64_t CompOn = 0, CompOff = 0;
  std::string On = Run(true, CompOn);
  std::string Off = Run(false, CompOff);
  EXPECT_EQ(On, Off);
  EXPECT_EQ(CompOn, CompOff);
  EXPECT_GT(CompOn, 0u);
}

TEST(BackgroundCompile, DrainBarrierIsDeterministic) {
  uint64_t Compiles1 = 0, Ctx1 = 0, Compiles2 = 0, Ctx2 = 0;
  std::string R1 = drainedRun(Compiles1, Ctx1);
  std::string R2 = drainedRun(Compiles2, Ctx2);
  EXPECT_EQ(R1, R2);
  EXPECT_EQ(Compiles1, Compiles2)
      << "zero-thread pool + drain must replay the same compile schedule";
  EXPECT_EQ(Ctx1, Ctx2);
  EXPECT_GT(Compiles1, 0u);

  // And the transcript matches the fully synchronous configuration.
  Vm::Config Sync;
  Sync.CompileThreshold = 2;
  Sync.OsrThreshold = 100;
  Sync.Strategy = TierStrategy::Deoptless;
  Sync.ContextDispatch = true;
  Sync.Inlining = true;
  Vm V(Sync);
  V.eval("g <- function(x) x * 2L\n"
         "f <- function(a, b) g(a) + b\n");
  std::string Ref;
  for (int K = 0; K < 4; ++K)
    Ref += V.eval("f(2L, 3L)").show() + "\n";
  for (int K = 0; K < 4; ++K)
    Ref += V.eval("f(2.5, 3L)").show() + "\n";
  for (int K = 0; K < 4; ++K)
    Ref += V.eval("f(2L, 3L)").show() + "\n";
  EXPECT_EQ(R1, Ref);
}

//===----------------------------------------------------------------------===//
// Background OSR-in

TEST(BackgroundCompile, OsrContinuationIsCachedAndEntered) {
  // A long-running loop in a function called once: whole-function tier-up
  // never triggers, so OSR-in is the only way off the baseline. In
  // background mode the first hot backedges request the continuation and
  // keep interpreting; once published, a later hot activation enters it.
  CompilerPool Pool(/*Threads=*/0);
  Vm::Config C = backgroundCfg(Pool);
  C.OsrThreshold = 50;
  C.CompileThreshold = 1000000; // isolate the OSR path
  Vm V(C);
  V.eval("loop <- function(n) {\n  s <- 0L\n  for (i in 1:n) s <- s + "
         "i\n  s\n}");
  EXPECT_EQ(V.eval("loop(400L)").show(), "80200L");
  EXPECT_EQ(stats().OsrInEntries, 0u)
      << "the request must not pause the first activation";
  V.drainCompiles();
  EXPECT_GT(stats().OsrInCompilations, 0u);
  uint64_t Before = stats().OsrInEntries;
  EXPECT_EQ(V.eval("loop(400L)").show(), "80200L");
  EXPECT_GT(stats().OsrInEntries, Before)
      << "the published continuation must serve the next hot loop";
}

TEST(BackgroundCompile, StaleOsrContinuationIsInvalidatedOnDeopt) {
  // The OSR-in table key is (pc, entry-type signature); a call-target
  // rebinding changes neither, so the published continuation's callee
  // guard goes stale while the key still matches. The deopt must retire
  // the entry's code — otherwise every OsrThreshold-th backedge re-enters
  // the same stale code and deopts again, forever.
  CompilerPool Pool(/*Threads=*/0);
  Vm::Config C = backgroundCfg(Pool);
  C.OsrThreshold = 50;
  C.CompileThreshold = 1000000; // isolate the OSR path
  Vm V(C);
  V.eval("g <- function(x) x + 1L");
  V.eval("loop <- function(n) {\n  s <- 0L\n  for (i in 1:n) s <- s + "
         "g(i)\n  s\n}");
  EXPECT_EQ(V.eval("loop(400L)").show(), "80600L"); // requests the compile
  V.drainCompiles();
  uint64_t Entries = stats().OsrInEntries;
  EXPECT_EQ(V.eval("loop(400L)").show(), "80600L");
  ASSERT_GT(stats().OsrInEntries, Entries)
      << "the published continuation must serve the hot loop";

  // Rebind the callee: same entry signature, stale speculation.
  V.eval("g <- function(x) x + 2L");
  uint64_t DeoptsBefore = stats().Deopts;
  EXPECT_EQ(V.eval("loop(400L)").show(), "81000L")
      << "the stale continuation must deopt to the new binding";
  uint64_t DeoptsAfterFirst = stats().Deopts;
  EXPECT_GT(DeoptsAfterFirst, DeoptsBefore);

  // The stale code is retired: the next run finds its entry without code
  // (requesting a fresh compile) and interprets — no repeated stale
  // re-entry, no further deopts.
  EXPECT_EQ(V.eval("loop(400L)").show(), "81000L");
  EXPECT_EQ(stats().Deopts, DeoptsAfterFirst)
      << "an evicted continuation must not keep deopting";
}

//===----------------------------------------------------------------------===//
// Background deoptless continuations

TEST(BackgroundCompile, DeoptlessContinuationPublishesAsynchronously) {
  CompilerPool Pool(/*Threads=*/0);
  Vm::Config C = backgroundCfg(Pool);
  C.Strategy = TierStrategy::Deoptless;
  Vm V(C);
  V.eval("f <- function(a) {\n  acc <- a\n  for (i in 1:3) acc <- acc + "
         "1L\n  acc\n}");
  V.eval("f(1L)");
  V.eval("f(2L)");
  V.drainCompiles(); // int-speculating version is live
  ASSERT_GT(stats().Compilations, 0u);

  // First phase-change call: continuation miss -> request + true deopt.
  uint64_t RejectedBefore = stats().DeoptlessRejected;
  EXPECT_EQ(V.eval("f(2.5)").show(), "5.5");
  EXPECT_GT(stats().DeoptlessRejected, RejectedBefore)
      << "the miss falls back to a true deopt while the job is queued";
  V.drainCompiles();
  EXPECT_GT(stats().DeoptlessCompiles, 0u)
      << "the drained job must publish the continuation";
}

//===----------------------------------------------------------------------===//
// Teardown safety

TEST(BackgroundCompile, DestructorDrainsInFlightRequests) {
  // Jobs hold pointers into the Vm's tier states; ~Vm must complete them
  // before tearing the states down. With worker threads this is a real
  // race if the barrier is missing (TSan-visible).
  CompilerPool Pool(/*Threads=*/2);
  for (int Round = 0; Round < 5; ++Round) {
    Vm V(backgroundCfg(Pool));
    V.eval("f <- function(a) a + 1L");
    V.eval("f(1L)");
    V.eval("f(2L)"); // enqueue, then destruct immediately
  }
  SUCCEED();
}
