//===-- tests/vm_test.cpp - Tier manager & OSR integration tests -----------===//

#include "compile/pool.h"
#include "native/native.h"
#include "osr/deoptless.h"
#include "osr/osrin.h"
#include "support/stats.h"
#include "vm/vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace rjit;

namespace {

Vm::Config cfg(TierStrategy S) {
  Vm::Config C;
  C.Strategy = S;
  C.CompileThreshold = 3;
  C.OsrThreshold = 100;
  return C;
}

/// The motivating example of the paper (Listing 1, adapted): sum over a
/// vector whose element type changes between phases.
const char *SumProgram = R"(
sum_data <- function(data) {
  total <- 0L
  for (i in 1:length(data)) total <- total + data[[i]]
  total
}
)";

} // namespace

//===----------------------------------------------------------------------===//
// Baseline correctness through the Vm facade

TEST(VmBasic, EvalSimple) {
  Vm V(cfg(TierStrategy::BaselineOnly));
  EXPECT_EQ(V.eval("1L + 2L").asIntUnchecked(), 3);
}

TEST(VmBasic, FrontEndErrorsReported) {
  Vm V(cfg(TierStrategy::BaselineOnly));
  Value R;
  std::string E;
  EXPECT_FALSE(V.eval("f(", R, E));
  EXPECT_NE(E.find("parse error"), std::string::npos);
}

TEST(VmBasic, RuntimeErrorsRaise) {
  Vm V(cfg(TierStrategy::BaselineOnly));
  EXPECT_THROW(V.eval("undefined_var + 1"), RError);
}

TEST(VmBasic, StateIsolatedBetweenVms) {
  {
    Vm V(cfg(TierStrategy::BaselineOnly));
    V.eval("x <- 42L");
  }
  Vm W(cfg(TierStrategy::BaselineOnly));
  EXPECT_THROW(W.eval("x"), RError);
}

TEST(VmBasic, OptOptionsDefaultsAreAFreshVms) {
  // Compiles outside a Vm (deoptbench's per-layer metrics among them)
  // start from OptOptions{} and set only what they vary, so every other
  // default must be what a fresh Vm compiles under. Backend and Ctx name
  // the Vm itself. The binding stops compiling when OptOptions gains a
  // field, so each new field gets its line here.
  Vm V{Vm::Config{}};
  const OptOptions Fresh = V.optView();
  const OptOptions Defaults{};
  [[maybe_unused]] const auto &[Speculate, Inline, Loop, VerifyEachPass,
                                Backend, Ctx, IntactBuiltins, BuiltinEpoch,
                                Pool, FeedbackCleanup, ContextDispatch] =
      Defaults;
  EXPECT_EQ(Speculate, Fresh.Speculate);
  EXPECT_EQ(Inline, Fresh.Inline);
  EXPECT_EQ(Loop, Fresh.Loop);
  EXPECT_EQ(VerifyEachPass, Fresh.VerifyEachPass);
  EXPECT_EQ(IntactBuiltins, Fresh.IntactBuiltins);
  EXPECT_EQ(BuiltinEpoch, Fresh.BuiltinEpoch);
  EXPECT_EQ(Pool, Fresh.Pool);
  EXPECT_EQ(FeedbackCleanup, Fresh.FeedbackCleanup);
  EXPECT_EQ(ContextDispatch, Fresh.ContextDispatch);
}

TEST(VmCounters, AnotherThreadsVmLeavesThisVmsCountersAlone) {
  // Counters are per Vm: a Vm built and run on another thread in the
  // middle of this one's run neither zeroes nor adds to this Vm's.
  Vm V(cfg(TierStrategy::Normal));
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  for (int K = 0; K < 10; ++K)
    V.eval("sum_data(ints)");
  auto Counts = [](const VmStats &S) {
    std::vector<uint64_t> Out;
    obs::MetricsRegistry::forEachCounter(
        S, [&](const char *, uint64_t X) { Out.push_back(X); });
    return Out;
  };
  const std::vector<uint64_t> Before = Counts(stats());
  ASSERT_GT(stats().Compilations, 0u);
  std::thread Other([] {
    Vm W(cfg(TierStrategy::BaselineOnly));
    W.eval(SumProgram);
    EXPECT_EQ(W.eval("sum_data(c(1.5, 2.5))").toReal(), 4.0);
    EXPECT_EQ(stats().Compilations, 0u) << "the other Vm's own counters";
  });
  Other.join();
  EXPECT_EQ(Counts(stats()), Before);
  uint64_t Checks = stats().AssumeChecks;
  V.eval("sum_data(ints)");
  EXPECT_GT(stats().AssumeChecks, Checks) << "and this Vm keeps counting";
}

//===----------------------------------------------------------------------===//
// Tiering up

TEST(VmTiering, HotFunctionGetsCompiled) {
  Vm V(cfg(TierStrategy::Normal));
  V.eval("f <- function(x) x * 2L");
  VmStats Start = stats();
  V.eval("r <- 0L\nfor (i in 1:20) r <- f(i)\nr");
  VmStats D = stats() - Start;
  EXPECT_GT(D.Compilations, 0u);
}

TEST(VmTiering, OptimizedResultsMatchBaseline) {
  const char *Prog = R"(
    f <- function(v) {
      s <- 0
      for (i in 1:length(v)) s <- s + v[[i]] * 2
      s
    }
    x <- c(1.5, 2.5, 3.5)
    r <- 0
    for (k in 1:20) r <- f(x)
    r
  )";
  double Base, Opt;
  {
    Vm V(cfg(TierStrategy::BaselineOnly));
    Base = V.eval(Prog).toReal();
  }
  {
    Vm V(cfg(TierStrategy::Normal));
    Opt = V.eval(Prog).toReal();
    EXPECT_GT(stats().Compilations, 0u);
  }
  EXPECT_DOUBLE_EQ(Base, Opt);
}

TEST(VmTiering, StoreUnderIfUpdatesInPlace) {
  // The store sits under an if: the loop carries counts through a join
  // phi whose other input is the unchanged vector. Once optimized, the
  // store must still find counts unshared and write it in place.
  const char *Prog = R"(
count <- function(keys) {
  counts <- integer(16L)
  for (i in 1:length(keys)) {
    k <- keys[[i]]
    if (k > 0L) counts[[k]] <- counts[[k]] + 1L
  }
  counts
}
keys <- integer(2000L)
for (i in 1:2000L) keys[[i]] <- i %% 17L
)";
  Vm V(cfg(TierStrategy::Normal));
  V.eval(Prog);
  for (int K = 0; K < 5; ++K)
    V.eval("count(keys)");
  VmStats Start = stats();
  Value R = V.eval("count(keys)");
  VmStats D = stats() - Start;
  EXPECT_EQ(D.Deopts, 0u);
  EXPECT_LE(D.CowCopies, 1u);
  ASSERT_EQ(R.length(), 16);
  for (int64_t K = 1; K <= 16; ++K)
    EXPECT_EQ(extract2(R, K).toInt(), K <= 11 ? 118 : 117) << K;
}

TEST(VmTiering, RecursionCompiles) {
  Vm V(cfg(TierStrategy::Normal));
  V.eval("fib <- function(n) if (n < 2L) n else fib(n-1L) + fib(n-2L)");
  EXPECT_EQ(V.eval("fib(15L)").asIntUnchecked(), 610);
  EXPECT_GT(stats().Compilations, 0u);
}

TEST(VmTiering, ClosureCapturingFunctionsStayCorrect) {
  Vm V(cfg(TierStrategy::Normal));
  Value R = V.eval(R"(
    make <- function(n) function(x) x + n
    f <- make(10L)
    r <- 0L
    for (i in 1:20) r <- f(i)
    r
  )");
  EXPECT_EQ(R.asIntUnchecked(), 30);
}

TEST(VmTiering, SuperAssignmentWorksOptimized) {
  Vm V(cfg(TierStrategy::Normal));
  Value R = V.eval(R"(
    counter <- 0L
    bump <- function(k) counter <<- counter + k
    for (i in 1:20) bump(1L)
    counter
  )");
  EXPECT_EQ(R.asIntUnchecked(), 20);
}

//===----------------------------------------------------------------------===//
// OSR-in

TEST(VmOsrIn, LongLoopTriggersOsrIn) {
  Vm V(cfg(TierStrategy::Normal));
  V.eval("g <- function(n) { s <- 0L\nfor (i in 1:n) s <- s + i\ns }");
  VmStats Start = stats();
  // Single call with a long loop: tier-up must happen mid-activation.
  Value R = V.eval("g(100000L)");
  EXPECT_EQ(R.asIntUnchecked(), 705082704); // wrapped 32-bit sum
  VmStats D = stats() - Start;
  EXPECT_GT(D.OsrInEntries, 0u);
}

TEST(VmOsrIn, TopLevelLoopTriggersOsrIn) {
  Vm V(cfg(TierStrategy::Normal));
  VmStats Start = stats();
  Value R = V.eval("s <- 0\nfor (i in 1:50000) s <- s + 1.5\ns");
  EXPECT_DOUBLE_EQ(R.asRealUnchecked(), 75000.0);
  VmStats D = stats() - Start;
  EXPECT_GT(D.OsrInEntries, 0u);
}

TEST(VmOsrIn, TopLevelLoopKeepsItsGlobalStores) {
  // The top level runs in the global environment: OSR-in code entered
  // from a top-level loop must store its globals, which a later eval
  // reads, on either backend and under either speculating strategy.
  for (TierStrategy S : {TierStrategy::Normal, TierStrategy::Deoptless})
    for (bool Native : {false, true}) {
      if (Native && !nativeBackendSupported())
        continue;
      Vm::Config C = cfg(S);
      C.NativeTier = Native;
      Vm V(C);
      VmStats Start = stats();
      V.eval("s <- 0\nfor (i in 1:50000) s <- s + 1.5");
      V.eval("v <- integer(300L)\nfor (k in 1:300) v[[k]] <- k");
      VmStats D = stats() - Start;
      EXPECT_GT(D.OsrInEntries, 0u);
      EXPECT_DOUBLE_EQ(V.eval("s").toReal(), 75000.0)
          << "native " << Native;
      EXPECT_EQ(V.eval("v[[300]]").toInt(), 300) << "native " << Native;
    }
}

TEST(VmOsrIn, DisabledMeansNoEntries) {
  // A zero threshold turns OSR-in off; no backedge may divide by it.
  Vm::Config C = cfg(TierStrategy::Normal);
  C.OsrThreshold = 0;
  Vm V(C);
  VmStats Start = stats();
  EXPECT_EQ(V.eval("s <- 0L\nfor (i in 1:5000) s <- s + i\ns").toInt(),
            12502500);
  VmStats D = stats() - Start;
  EXPECT_EQ(D.OsrInEntries, 0u);
}

TEST(VmOsrIn, BaselineOnlyNeverOptimizes) {
  // BaselineOnly is the reference the differential checks compare
  // against: a hot loop stays in the interpreter, synchronously and with
  // a compiler pool.
  CompilerPool Pool(/*Threads=*/0);
  for (bool Background : {false, true}) {
    Vm::Config C = cfg(TierStrategy::BaselineOnly);
    C.Pool = Background ? &Pool : nullptr;
    Vm V(C);
    VmStats Start = stats();
    EXPECT_EQ(V.eval("s <- 0L\nfor (i in 1:5000) s <- s + i\ns").toInt(),
              12502500);
    V.drainCompiles();
    VmStats D = stats() - Start;
    EXPECT_EQ(D.OsrInCompilations, 0u) << "background " << Background;
    EXPECT_EQ(D.OsrInEntries, 0u) << "background " << Background;
    EXPECT_EQ(D.AsyncCompiles, 0u) << "background " << Background;
  }
}

namespace {

/// OSR-in code only: functions never reach the call threshold.
Vm::Config osrOnly(TierStrategy S, uint32_t OsrThreshold) {
  Vm::Config C = cfg(S);
  C.CompileThreshold = 1000000;
  C.OsrThreshold = OsrThreshold;
  return C;
}

} // namespace

TEST(VmOsrIn, InnerLoopEntryFollowsTheOuterLoopsSequences) {
  // OSR-in at the inner loop's header, in the middle of the outer loop:
  // every later outer iteration re-enters the inner loop with a new, longer
  // sequence. The OSR code must iterate those, not the entry state's.
  const char *Prog = R"(
nested <- function(n) {
  total <- 0L
  for (p in 1:n) {
    for (j in 1:p) total <- total + j
  }
  total
}
)";
  int32_t Want;
  {
    Vm Base(cfg(TierStrategy::BaselineOnly));
    Base.eval(Prog);
    Want = Base.eval("nested(10L)").toInt();
  }
  for (uint32_t Threshold : {2u, 5u, 20u}) {
    Vm V(osrOnly(TierStrategy::Normal, Threshold));
    V.eval(Prog);
    VmStats Start = stats();
    EXPECT_EQ(V.eval("nested(10L)").toInt(), Want)
        << "OsrThreshold " << Threshold;
    VmStats D = stats() - Start;
    EXPECT_GT(D.OsrInEntries, 0u);
  }
}

TEST(VmOsrIn, SpeculateOffInsertsNoAssumes) {
  // The Speculate ablation covers every compile entry point, OSR-in
  // continuations included.
  Vm::Config C = osrOnly(TierStrategy::Normal, 50);
  C.Speculate = false;
  Vm V(C);
  V.eval(R"(
g <- function(x) x * 2
f <- function(v) { s <- 0; for (i in 1:length(v)) s <- s + g(v[[i]]); s }
)");
  VmStats Start = stats();
  EXPECT_DOUBLE_EQ(V.eval("f(as.numeric(1:2000))").toReal(), 4002000.0);
  VmStats D = stats() - Start;
  EXPECT_GT(D.OsrInEntries, 0u);
  EXPECT_EQ(D.AssumeChecks, 0u);
}

TEST(VmOsrIn, SynchronousOsrCodeIsReusedPerSignature) {
  // Synchronous OSR-in publishes its code under (pc, entry signature): a
  // second activation reaching the same hot backedge with the same types
  // enters it again instead of compiling again.
  Vm V(osrOnly(TierStrategy::Normal, 50));
  V.eval("loop <- function(n) { s <- 0L\nfor (i in 1:n) s <- s + i\ns }");
  VmStats Start = stats();
  EXPECT_EQ(V.eval("loop(400L)").toInt(), 80200);
  EXPECT_EQ(V.eval("loop(400L)").toInt(), 80200);
  VmStats D = stats() - Start;
  EXPECT_EQ(D.OsrInEntries, 2u);
  EXPECT_EQ(D.OsrInCompilations, 1u);
}

TEST(VmOsrIn, DeoptlessDropsStaleOsrCode) {
  // The loop's callee is rebound after OSR-in code speculated on it. The
  // first activation that enters the published code fails its call-target
  // guard, and a continuation absorbs the failure. The code is stale all
  // the same: it must be retired, or every later activation enters it and
  // fails the same guard again.
  CompilerPool Pool(/*Threads=*/0);
  for (bool Background : {false, true}) {
    Vm::Config C = osrOnly(TierStrategy::Deoptless, 50);
    C.Pool = Background ? &Pool : nullptr;
    Vm V(C);
    V.eval("g <- function(x) 2L");
    V.eval("f <- function(n) { s <- 0L\nfor (i in 1:n) s <- s + g(i)\ns }");
    for (int K = 0; K < 5; ++K) {
      EXPECT_EQ(V.eval("f(200L)").toInt(), 400);
      V.drainCompiles();
    }
    V.eval("g <- function(x) 1L + 1L");
    VmStats Start = stats();
    for (int K = 0; K < 20; ++K) {
      EXPECT_EQ(V.eval("f(200L)").toInt(), 400) << "call " << K;
      V.drainCompiles();
    }
    VmStats D = stats() - Start;
    EXPECT_LE(D.AssumeFailures, 2u) << "background " << Background;
    EXPECT_GT(D.OsrInEntries, 0u) << "background " << Background;
  }
}

namespace {

/// The Vm's own OSR-in hook, wrapped by failingOsrHook.
bool (*VmOsrHook)(Function *, Env *, std::vector<Value> &, int32_t,
                  Value &) = nullptr;

/// Publishes the failure mark for the hot backedge's exact state when it
/// has no entry yet, as if its compile had failed, then runs the Vm's
/// hook.
bool failingOsrHook(Function *Fn, Env *E, std::vector<Value> &Stack,
                    int32_t Pc, Value &Result) {
  CodeTable<OsrKey> &Osr = Vm::current()->stateFor(Fn).Osr;
  OsrKey Key(buildOsrEntryState(Fn, E, Stack, Pc));
  if (!Osr.exact(Key))
    Osr.publish(Key, nullptr);
  return VmOsrHook(Fn, E, Stack, Pc, Result);
}

} // namespace

TEST(VmOsrIn, FailureMarkerDiesWithItsVm) {
  // A failed OSR-in compile leaves the entry's failure mark: that
  // signature is not retried in that Vm, and a later Vm on the same
  // thread starts clean, even when its Function reuses the freed address.
  const char *Prog = "g <- function(n) { s <- 0L\nfor (i in 1:n) s <- s + i\ns }";
  {
    Vm A(cfg(TierStrategy::Normal));
    A.eval(Prog);
    Function *G = A.eval("g").closObj()->Fn;
    VmOsrHook = A.context().Interp.OsrIn;
    A.context().Interp.OsrIn = failingOsrHook;
    VmStats Start = stats();
    A.eval("g(5000L)");
    VmStats D = stats() - Start;
    EXPECT_EQ(D.OsrInCompilations, 0u) << "a failed signature is not retried";
    EXPECT_EQ(D.OsrInEntries, 0u);
    EXPECT_EQ(A.stateFor(G).Osr.size(), 1u) << "one marker";
  }
  Vm B(cfg(TierStrategy::Normal));
  B.eval(Prog);
  Function *G = B.eval("g").closObj()->Fn;
  EXPECT_EQ(B.stateFor(G).Osr.size(), 0u);
  VmStats Start = stats();
  B.eval("g(5000L)");
  VmStats D = stats() - Start;
  EXPECT_GT(D.OsrInEntries, 0u);
}

TEST(VmOsrIn, RealFailuresRepublishIntoOneEntry) {
  // Each round makes one more list hold a logical where the loop's OSR-in
  // code speculates on an int element: a real guard failure, with the same
  // entry signature (s stays an int). The failing code is retired and the
  // next hot backedge recompiles into the same entry, so the function's
  // OSR-in table holds one entry, republished each round, synchronously
  // and on a 0-thread pool.
  CompilerPool Pool(/*Threads=*/0);
  for (bool Background : {false, true}) {
    Vm::Config C = osrOnly(TierStrategy::Normal, 50);
    C.Pool = Background ? &Pool : nullptr;
    Vm V(C);
    V.eval("f <- function(a, b, c, n) { s <- 0L\n"
           "for (i in 1:n) s <- s + a[[i]] + b[[i]] + c[[i]]\ns }");
    V.eval("a <- list(1L)\nfor (k in 2:200) a[[k]] <- k\nb <- a\nc <- a");
    const char *Call = "f(a, b, c, 200L)";
    Function *F = V.eval("f").closObj()->Fn;
    CodeTable<OsrKey> &Osr = V.stateFor(F).Osr;
    int Want = 60300;
    auto Run = [&] {
      EXPECT_EQ(V.eval(Call).toInt(), Want) << "background " << Background;
      V.drainCompiles();
    };
    Run();
    Run(); // with a pool, the second call enters the published code
    ASSERT_EQ(Osr.size(), 1u);
    CodeEntry<OsrKey> *E = Osr.entries()[0];
    ASSERT_TRUE(E->live());
    const uint64_t Id = E->ObsId;
    VmStats Start = stats();
    for (const char *List : {"a", "b", "c"}) {
      V.eval(std::string(List) + "[[200]] <- TRUE");
      Want -= 199;
      Run(); // enters the code, which fails its guard on the logical
      EXPECT_FALSE(E->live()) << "the stale code is retired";
      Run(); // the next hot backedge republishes (with a pool, at drain)
      Run();
      EXPECT_EQ(Osr.size(), 1u) << "background " << Background;
      EXPECT_EQ(Osr.entries()[0], E);
      EXPECT_EQ(E->ObsId, Id);
      EXPECT_TRUE(E->live()) << "background " << Background;
    }
    VmStats D = stats() - Start;
    EXPECT_EQ(D.Deopts, 3u) << "background " << Background;
    EXPECT_EQ(D.AssumeFailures, 3u);
    EXPECT_EQ(D.InjectedFailures, 0u);
    EXPECT_EQ(D.OsrInCompilations, 3u) << "background " << Background;
  }
}

//===----------------------------------------------------------------------===//
// Deoptimization (Normal strategy, Fig. 1 cycle)

TEST(VmDeopt, TypePhaseChangeDeopts) {
  Vm V(cfg(TierStrategy::Normal));
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  V.eval("reals <- c(1.5, 2.5, 3.5, 4.5)");
  for (int K = 0; K < 10; ++K)
    EXPECT_EQ(V.eval("sum_data(ints)").toInt(), 10);
  VmStats Start = stats();
  // Phase change: the speculative int-typed code must deopt, and the
  // result must still be correct.
  EXPECT_DOUBLE_EQ(V.eval("sum_data(reals)").toReal(), 12.0);
  VmStats D = stats() - Start;
  EXPECT_GT(D.Deopts, 0u);
}

TEST(VmDeopt, RecompiledGenericCodeHandlesBoth) {
  Vm V(cfg(TierStrategy::Normal));
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  V.eval("reals <- c(1.5, 2.5, 3.5, 4.5)");
  for (int K = 0; K < 10; ++K)
    V.eval("sum_data(ints)");
  V.eval("sum_data(reals)");
  // Re-warm: recompiles with merged feedback; no further deopts.
  for (int K = 0; K < 10; ++K)
    V.eval("sum_data(reals)");
  VmStats Start = stats();
  V.eval("sum_data(ints)");
  V.eval("sum_data(reals)");
  VmStats D = stats() - Start;
  EXPECT_EQ(D.Deopts, 0u)
      << "converged generic code must not deopt again";
}

TEST(VmDeopt, CallTargetChangeDeopts) {
  Vm V(cfg(TierStrategy::Normal));
  V.eval(R"(
    callee1 <- function(x) x + 1L
    callee2 <- function(x) x + 100L
    target <- callee1
    caller <- function(y) target(y)
  )");
  for (int K = 0; K < 10; ++K)
    EXPECT_EQ(V.eval("caller(1L)").toInt(), 2);
  V.eval("target <- callee2");
  EXPECT_EQ(V.eval("caller(1L)").toInt(), 101)
      << "deopt must preserve call semantics";
}

TEST(VmDeopt, MidLoopDeoptPreservesPartialState) {
  // The list switches type half way: the deopt happens mid-loop with a
  // live partial sum that must be carried into the interpreter.
  Vm V(cfg(TierStrategy::Normal));
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  for (int K = 0; K < 10; ++K)
    V.eval("sum_data(ints)");
  Value R = V.eval("sum_data(list(1L, 2L, 1.5, 4L))");
  EXPECT_DOUBLE_EQ(R.toReal(), 8.5);
}

//===----------------------------------------------------------------------===//
// Deoptless (Fig. 2)

TEST(VmDeoptless, PhaseChangeAvoidsTrueDeopt) {
  Vm V(cfg(TierStrategy::Deoptless));
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  V.eval("reals <- c(1.5, 2.5, 3.5, 4.5)");
  for (int K = 0; K < 10; ++K)
    V.eval("sum_data(ints)");
  VmStats Start = stats();
  EXPECT_DOUBLE_EQ(V.eval("sum_data(reals)").toReal(), 12.0);
  VmStats D = stats() - Start;
  EXPECT_EQ(D.Deopts, 0u) << "deoptless must not tier down";
  EXPECT_GT(D.DeoptlessCompiles, 0u);
}

TEST(VmDeoptless, ContinuationIsReused) {
  Vm V(cfg(TierStrategy::Deoptless));
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  V.eval("reals <- c(1.5, 2.5, 3.5, 4.5)");
  for (int K = 0; K < 10; ++K)
    V.eval("sum_data(ints)");
  V.eval("sum_data(reals)"); // compiles the continuation
  VmStats Start = stats();
  for (int K = 0; K < 5; ++K)
    EXPECT_DOUBLE_EQ(V.eval("sum_data(reals)").toReal(), 12.0);
  VmStats D = stats() - Start;
  EXPECT_GT(D.DeoptlessHits, 0u)
      << "subsequent deopts must dispatch to the cached continuation";
  EXPECT_EQ(D.DeoptlessCompiles, 0u);
  EXPECT_EQ(D.Deopts, 0u);
}

TEST(VmDeoptless, OriginalCodeRetained) {
  // Fig. 4's last phase: going back to the original type must be as fast
  // as before — i.e. the optimized version still exists and does not
  // re-deopt for ints.
  Vm V(cfg(TierStrategy::Deoptless));
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  V.eval("reals <- c(1.5, 2.5, 3.5, 4.5)");
  for (int K = 0; K < 10; ++K)
    V.eval("sum_data(ints)");
  V.eval("sum_data(reals)");
  VmStats Start = stats();
  EXPECT_EQ(V.eval("sum_data(ints)").toInt(), 10);
  VmStats D = stats() - Start;
  EXPECT_EQ(D.Deopts, 0u);
  EXPECT_EQ(D.DeoptlessAttempts, 0u)
      << "the int path must not even reach the deopt runtime";
}

TEST(VmDeoptless, MultiplePhasesMultipleContinuations) {
  Vm V(cfg(TierStrategy::Deoptless));
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L)");
  V.eval("reals <- c(1.5, 2.5)");
  V.eval("cplxs <- c(1i, 2i)");
  for (int K = 0; K < 10; ++K)
    V.eval("sum_data(ints)");
  V.eval("sum_data(reals)");
  Value C = V.eval("sum_data(cplxs)");
  EXPECT_EQ(C.tag(), Tag::Cplx);
  EXPECT_DOUBLE_EQ(C.asCplxUnchecked().Im, 3.0);
  EXPECT_GE(stats().DeoptlessCompiles, 2u)
      << "different phases need differently specialized continuations";
}

TEST(VmDeoptless, TableBoundFallsBackToDeopt) {
  // Six element tests, warmed on ints. Each later call holds a double at
  // another position, so a guard fails at a fresh pc: a deopt context of
  // its own (the comparison's logical keeps the rest of the body on its
  // int profile). The first MaxContinuations fill the table; the next one
  // cannot get a continuation and falls back to a true deopt.
  constexpr int Reads = 6;
  static_assert(Reads == MaxContinuations + 1, "one context past the bound");
  Vm V(cfg(TierStrategy::Deoptless));
  V.eval("f <- function(l) (l[[1]] > 0L) + (l[[2]] > 0L) + (l[[3]] > 0L) + "
         "(l[[4]] > 0L) + (l[[5]] > 0L) + (l[[6]] > 0L)");
  V.eval("li <- list(1L, 2L, 3L, 4L, 5L, 6L)");
  for (int K = 0; K < 10; ++K)
    ASSERT_EQ(V.eval("f(li)").toInt(), 6);
  Function *F = V.eval("f").closObj()->Fn;
  CodeTable<DeoptContext> &Table = V.stateFor(F).Continuations;
  for (int K = 1; K <= Reads; ++K) {
    std::string Pos = std::to_string(K);
    V.eval("l <- li\nl[[" + Pos + "]] <- " + Pos + ".5");
    VmStats Start = stats();
    EXPECT_EQ(V.eval("f(l)").toInt(), 6) << "position " << K;
    VmStats D = stats() - Start;
    if (K <= static_cast<int>(MaxContinuations)) {
      EXPECT_EQ(D.DeoptlessCompiles, 1u) << "position " << K;
      EXPECT_EQ(Table.size(), static_cast<size_t>(K));
    } else {
      EXPECT_EQ(D.DeoptlessCompiles, 0u);
      EXPECT_GT(D.Deopts + D.DeoptlessRejected, 0u)
          << "a full table falls back to a true deopt";
      EXPECT_TRUE(Table.full());
    }
  }
}

TEST(VmDeoptless, FullTableMissCompilesNothing) {
  // Injected failures strike each of f's eight element guards; the table
  // fills with the first MaxContinuations continuations. Every later miss
  // is refused before compiling: it truly deopts, and no continuation is
  // compiled only to be thrown away (no compile latency is recorded).
  Vm::Config C = cfg(TierStrategy::Deoptless);
  C.InvalidationRate = 7;
  Vm V(C);
  V.eval("f <- function(l) l[[1]] + l[[2]] + l[[3]] + l[[4]] + l[[5]] + "
         "l[[6]] + l[[7]] + l[[8]]");
  V.eval("li <- list(1L, 2L, 3L, 4L, 5L, 6L, 7L, 8L)");
  Function *F = V.eval("f").closObj()->Fn;
  uint64_t LatencyAtFull = 0, RejectedAtFull = 0;
  bool Full = false;
  for (int K = 0; K < 600; ++K) {
    ASSERT_EQ(V.eval("f(li)").toInt(), 36);
    if (!Full && V.stateFor(F).Continuations.full()) {
      Full = true;
      LatencyAtFull = obs::metrics().CompileLatency.count();
      RejectedAtFull = stats().DeoptlessRejected;
    }
  }
  ASSERT_TRUE(Full);
  EXPECT_EQ(V.stateFor(F).Continuations.size(), MaxContinuations);
  EXPECT_GT(stats().DeoptlessRejected, RejectedAtFull)
      << "misses on the full table must happen";
  EXPECT_EQ(obs::metrics().CompileLatency.count(), LatencyAtFull)
      << "a miss on a full table compiles nothing";
}

TEST(VmDeoptless, ResultsAlwaysMatchBaseline) {
  const char *Drive = R"(
    r <- 0
    r <- r + sum_data(c(1L, 2L, 3L))
    r <- r + sum_data(c(1.5, 2.5))
    r <- r + sum_data(c(10L, 20L))
    r <- r + sum_data(c(0.5))
    r
  )";
  double Base, DL;
  {
    Vm V(cfg(TierStrategy::BaselineOnly));
    V.eval(SumProgram);
    for (int K = 0; K < 12; ++K)
      V.eval("sum_data(c(7L, 8L))");
    Base = V.eval(Drive).toReal();
  }
  {
    Vm V(cfg(TierStrategy::Deoptless));
    V.eval(SumProgram);
    for (int K = 0; K < 12; ++K)
      V.eval("sum_data(c(7L, 8L))");
    DL = V.eval(Drive).toReal();
  }
  EXPECT_DOUBLE_EQ(Base, DL);
}

TEST(VmDeoptless, ContinuationInsideNestedLoopsFollowsOuterSequences) {
  // The guard fails at p = 5, j = 5: the continuation is entered inside
  // the inner loop, and every later outer iteration re-enters that loop
  // with a longer sequence, which the continuation must iterate.
  const char *Prog = R"(
f <- function(v, n) {
  total <- 0L
  for (p in 1:n) {
    for (j in 1:p) total <- total + v[[j]]
  }
  total
}
ints <- list(1L, 2L, 3L, 4L, 5L, 6L, 7L, 8L, 9L, 10L)
mixed <- list(1L, 2L, 3L, 4L, 5.5, 6L, 7L, 8L, 9L, 10L)
)";
  double Want;
  {
    Vm Base(cfg(TierStrategy::BaselineOnly));
    Base.eval(Prog);
    Want = Base.eval("f(mixed, 10L)").toReal();
  }
  Vm V(cfg(TierStrategy::Deoptless));
  V.eval(Prog);
  for (int K = 0; K < 5; ++K)
    V.eval("f(ints, 10L)");
  VmStats Start = stats();
  EXPECT_DOUBLE_EQ(V.eval("f(mixed, 10L)").toReal(), Want);
  VmStats D = stats() - Start;
  EXPECT_GT(D.DeoptlessCompiles, 0u);
}

TEST(VmDeoptless, ContinuationUpdatesItsVectorInPlace) {
  // x's elements turn from int to double half way through the store
  // loop, failing the guard on x[[i]]: the continuation is entered
  // mid-body and finishes the loop. It must move v from iteration to
  // iteration, not copy all of it on each one (n/2 copies of an n-long
  // vector made the continuation quadratic).
  const char *Prog = R"(
fill <- function(x, n) {
  v <- integer(n)
  for (i in 1:n) v[[i]] <- x[[i]] * 2L
  v
}
n <- 1000L
ints <- vector("list", n)
mixed <- vector("list", n)
for (i in 1:n) {
  ints[[i]] <- i
  mixed[[i]] <- if (i > 500L) i + 0.5 else i
}
)";
  Value Want;
  {
    Vm Base(cfg(TierStrategy::BaselineOnly));
    Base.eval(Prog);
    Want = Base.eval("fill(mixed, n)");
  }
  Vm V(cfg(TierStrategy::Deoptless));
  V.eval(Prog);
  for (int K = 0; K < 5; ++K)
    V.eval("fill(ints, n)");
  VmStats Start = stats();
  Value Got = V.eval("fill(mixed, n)");
  EXPECT_TRUE(Got.equals(Want)) << Got.show() << " vs " << Want.show();
  VmStats D = stats() - Start;
  EXPECT_GT(D.DeoptlessCompiles + D.DeoptlessHits, 0u);
  EXPECT_EQ(D.Deopts, 0u);
  EXPECT_LE(D.CowCopies, 2u);
}

TEST(VmDeoptless, ContinuationTablesArePerVm) {
  // Two executors run the same phase change, each in its own Vm: each
  // Vm's tier state holds its own continuation, and destroying one Vm
  // mid-run leaves the other dispatching to its own (this runs in the
  // TSan job).
  auto Warm = [](Vm &V) {
    V.eval(SumProgram);
    V.eval("ints <- c(1L, 2L, 3L, 4L)");
    V.eval("reals <- c(1.5, 2.5, 3.5, 4.5)");
    for (int K = 0; K < 10; ++K)
      V.eval("sum_data(ints)");
    V.eval("sum_data(reals)"); // compiles the continuation
    return &V.stateFor(V.eval("sum_data").closObj()->Fn).Continuations;
  };
  std::atomic<int> Warmed{0};
  std::atomic<bool> FirstGone{false};
  auto AwaitBoth = [&] {
    ++Warmed;
    while (Warmed.load() < 2)
      std::this_thread::yield();
  };
  std::thread First([&] {
    {
      Vm V(cfg(TierStrategy::Deoptless));
      EXPECT_EQ(Warm(V)->size(), 1u);
      AwaitBoth();
    }
    FirstGone = true;
  });
  std::thread Second([&] {
    Vm V(cfg(TierStrategy::Deoptless));
    CodeTable<DeoptContext> *T = Warm(V);
    EXPECT_EQ(T->size(), 1u);
    AwaitBoth();
    if (T->size() != 1)
      return;
    uint32_t HitsBefore = T->entries()[0]->Hits;
    int Runs = 0;
    while (!FirstGone.load() || Runs < 20) {
      EXPECT_DOUBLE_EQ(V.eval("sum_data(reals)").toReal(), 12.0);
      ++Runs;
    }
    EXPECT_EQ(T->size(), 1u);
    EXPECT_GE(T->entries()[0]->Hits, HitsBefore + 20);
  });
  First.join();
  Second.join();
}

//===----------------------------------------------------------------------===//
// Why Deoptless still deopts: every true deopt under Deoptless has one
// counted cause — a refusal (recursive, materialized environment, builtin
// redefinition) or a reject.

void expectDeoptCausesAddUp() {
  EXPECT_EQ(stats().Deopts,
            stats().DeoptlessSkipRecursive + stats().DeoptlessSkipEnv +
                stats().DeoptlessSkipBuiltin + stats().DeoptlessRejected);
}

TEST(VmDeoptlessCause, FailureInsideItsOwnContinuationIsRecursive) {
  // Both loops speculate on int list elements. A real first list fails
  // the first loop's guard: deoptless compiles a continuation with that
  // slot repaired, but the second loop's guard in the continuation still
  // expects ints and fails inside the continuation's own code.
  Vm V(cfg(TierStrategy::Deoptless));
  V.eval(R"(
    two <- function(a, b) {
      s <- 0L
      for (i in 1:length(a)) s <- s + a[[i]]
      t <- 0L
      for (i in 1:length(b)) t <- t + b[[i]]
      s + t
    }
    li <- list(1L, 2L, 3L)
    lr <- list(1.5, 2.5, 3.5)
  )");
  for (int K = 0; K < 10; ++K)
    ASSERT_EQ(V.eval("two(li, li)").toInt(), 12);
  VmStats Start = stats();
  EXPECT_DOUBLE_EQ(V.eval("two(lr, lr)").toReal(), 15.0);
  VmStats D = stats() - Start;
  EXPECT_GT(D.DeoptlessCompiles, 0u);
  EXPECT_GT(D.DeoptlessSkipRecursive, 0u);
  EXPECT_GT(D.Deopts, 0u);
  EXPECT_EQ(D.DeoptlessSkipEnv, 0u);
  EXPECT_EQ(D.DeoptlessSkipBuiltin, 0u);
  expectDeoptCausesAddUp();
}

TEST(VmDeoptlessCause, MaterializedEnvironmentSkipsDeoptless) {
  // Defining a closure keeps the function's environment materialized, so
  // its optimized code runs with a real Env and deoptless never applies.
  Vm V(cfg(TierStrategy::Deoptless));
  V.eval(R"(
    keep <- function(l) {
      k <- function() 1L
      s <- 0L
      for (i in 1:length(l)) s <- s + l[[i]]
      s
    }
    li <- list(1L, 2L, 3L)
    lr <- list(1.5, 2.5, 3.5)
  )");
  for (int K = 0; K < 10; ++K)
    ASSERT_EQ(V.eval("keep(li)").toInt(), 6);
  VmStats Start = stats();
  EXPECT_DOUBLE_EQ(V.eval("keep(lr)").toReal(), 7.5);
  VmStats D = stats() - Start;
  EXPECT_GT(D.DeoptlessSkipEnv, 0u);
  EXPECT_GT(D.Deopts, 0u);
  EXPECT_EQ(D.DeoptlessAttempts, 0u);
  expectDeoptCausesAddUp();
}

TEST(VmDeoptlessCause, BuiltinRedefinitionSkipsDeoptless) {
  // A builtin redefined while code that folded it is running invalidates
  // that code for good: the activation's epoch check after the callee
  // that rebound it fails, and deoptless refuses.
  Vm V(cfg(TierStrategy::Deoptless));
  V.eval(R"(
    redefine <- function(on) { if (on) length <<- function(v) 10L; 0L }
    len1 <- function(v, on) redefine(on) + length(v) + 1L
  )");
  for (int K = 0; K < 10; ++K)
    ASSERT_EQ(V.eval("len1(1:4, FALSE)").toInt(), 5);
  VmStats Start = stats();
  EXPECT_EQ(V.eval("len1(1:4, TRUE)").toInt(), 11);
  VmStats D = stats() - Start;
  EXPECT_EQ(D.BuiltinRebinds, 1u);
  EXPECT_EQ(D.DeoptlessSkipBuiltin, 1u);
  EXPECT_EQ(D.Deopts, 1u);
  EXPECT_EQ(D.DeoptlessAttempts, 0u);
  expectDeoptCausesAddUp();
}

//===----------------------------------------------------------------------===//
// Builtin bindings as watched global assumptions: optimized code folds a
// global builtin, an overwrite of its binding retires that code, and a
// running activation fails its next epoch check.

namespace {

/// Runs \p Body once per strategy (Normal, Deoptless) and backend.
template <typename Fn> void forStrategiesAndBackends(Fn Body) {
  for (TierStrategy S : {TierStrategy::Normal, TierStrategy::Deoptless})
    for (bool Native : {false, true}) {
      SCOPED_TRACE(std::string(S == TierStrategy::Normal ? "Normal"
                                                         : "Deoptless") +
                   (Native ? " native" : " interpreter"));
      Vm::Config C = cfg(S);
      C.NativeTier = Native;
      Body(C);
    }
}

/// What \p E evaluates to in \p V: its value shown, or the error it raises.
std::string valueOrError(Vm &V, const std::string &E) {
  try {
    return V.eval(E).show();
  } catch (const RError &Err) {
    return std::string("Error: ") + Err.what();
  }
}

/// The values (or errors) \p Exprs evaluate to after \p Setup, under
/// BaselineOnly.
std::vector<std::string> baselineValues(const std::string &Setup,
                                        const std::vector<std::string> &Exprs) {
  Vm V(cfg(TierStrategy::BaselineOnly));
  V.eval(Setup);
  std::vector<std::string> R;
  for (const std::string &E : Exprs)
    R.push_back(valueOrError(V, E));
  return R;
}

} // namespace

TEST(VmBuiltinWatch, FoldedCodeCarriesNoBuiltinLoadOrGuard) {
  Vm V(cfg(TierStrategy::Normal));
  V.eval("len1 <- function(v) length(v) + abs(-1L)");
  for (int K = 0; K < 4; ++K)
    ASSERT_EQ(V.eval("len1(1:4)").toInt(), 5);
  Function *Fn = V.eval("len1").closObj()->Fn;
  FnVersion *Ver = V.stateFor(Fn).Versions.mostGenericLive();
  ASSERT_TRUE(Ver);
  const LowFunction &L = Ver->code()->low();
  EXPECT_TRUE(L.FoldsBuiltins);
  for (const LowInstr &I : L.Code) {
    EXPECT_NE(I.Op, LowOp::LdEnv) << printLow(L);
    EXPECT_NE(I.Op, LowOp::CallValLow) << printLow(L);
    if (I.Op == LowOp::GuardCond) {
      EXPECT_EQ(I.C, 0) << "only the parameter's type guard\n" << printLow(L);
    }
  }
}

TEST(VmBuiltinWatch, TopLevelRebindingRetiresWithoutDeopt) {
  const std::string Setup = "len1 <- function(v) length(v) + 1L";
  const std::vector<std::string> Exprs = {
      "len1(1:4)", "saved <- length", "length <- function(v) 10L",
      "len1(1:4)", "len1(1:4)", "length <- saved", "len1(1:4)"};
  std::vector<std::string> Want = baselineValues(Setup, Exprs);
  forStrategiesAndBackends([&](const Vm::Config &C) {
    Vm V(C);
    V.eval(Setup);
    for (int K = 0; K < 5; ++K)
      ASSERT_EQ(V.eval("len1(1:4)").toInt(), 5);
    Function *Fn = V.eval("len1").closObj()->Fn;
    ASSERT_TRUE(V.stateFor(Fn).Versions.mostGenericLive());
    VmStats Start = stats();
    for (size_t K = 0; K < Exprs.size(); ++K)
      EXPECT_EQ(V.eval(Exprs[K]).show(), Want[K]) << Exprs[K];
    VmStats D = stats() - Start;
    // One overwrite of length's own binding; restoring it bumps nothing.
    EXPECT_EQ(D.BuiltinRebinds, 1u);
    EXPECT_EQ(D.Deopts, 0u);
    EXPECT_EQ(D.AssumeFailures, 0u);
    EXPECT_EQ(D.DeoptlessSkipBuiltin, 0u);
    // The folded version retired and recompiled generic; the restore
    // changes no dependent, so the generic code stays.
    EXPECT_EQ(D.Compilations, 1u);
    FnVersion *Ver = V.stateFor(Fn).Versions.mostGenericLive();
    ASSERT_TRUE(Ver);
    EXPECT_FALSE(Ver->code()->low().FoldsBuiltins);
  });
}

TEST(VmBuiltinWatch, SuperAssignMidLoopFailsTheEpochCheckOnce) {
  const std::string Setup = R"(
    trig <- 0L
    rebind <- function(i) { if (i == trig) length <<- function(v) 100L; i }
    f <- function(n) {
      s <- 0L
      for (i in 1:n) { rebind(i); s <- s + length(i) }
      s
    }
  )";
  std::vector<std::string> Want =
      baselineValues(Setup, {"f(20L)", "f(20L)", "trig <- 7L", "f(20L)",
                             "f(20L)"});
  forStrategiesAndBackends([&](const Vm::Config &C) {
    Vm V(C);
    V.eval(Setup);
    EXPECT_EQ(V.eval("f(20L)").show(), Want[0]);
    EXPECT_EQ(V.eval("f(20L)").show(), Want[1]);
    for (int K = 0; K < 4; ++K)
      ASSERT_EQ(V.eval("f(20L)").show(), Want[1]);
    V.eval("trig <- 7L");
    VmStats Start = stats();
    EXPECT_EQ(V.eval("f(20L)").show(), Want[3]);
    VmStats D = stats() - Start;
    EXPECT_EQ(D.BuiltinRebinds, 1u);
    EXPECT_EQ(D.Deopts, 1u);
    EXPECT_EQ(D.DeoptlessSkipBuiltin,
              C.Strategy == TierStrategy::Deoptless ? 1u : 0u);
    EXPECT_EQ(D.InjectedFailures, 0u);
    if (C.Strategy == TierStrategy::Deoptless)
      expectDeoptCausesAddUp();
    EXPECT_EQ(V.eval("f(20L)").show(), Want[4]);
  });
}

TEST(VmBuiltinWatch, CompileRequestedBeforeRebindingIsNeverEntered) {
  forStrategiesAndBackends([](Vm::Config C) {
    CompilerPool Pool(/*Threads=*/0);
    C.Pool = &Pool;
    Vm V(C);
    V.eval("len1 <- function(v) length(v) + 1L");
    for (int K = 0; K < 3; ++K)
      ASSERT_EQ(V.eval("len1(1:4)").toInt(), 5);
    Function *Fn = V.eval("len1").closObj()->Fn;
    EXPECT_FALSE(V.stateFor(Fn).Versions.mostGenericLive());
    V.eval("length <- function(v) 10L");
    VmStats Start = stats();
    V.drainCompiles(); // the job compiled under the old epoch
    VmStats D = stats() - Start;
    EXPECT_EQ(D.AsyncCompiles, 1u);
    EXPECT_EQ(D.Compilations, 0u) << "the stale publication is discarded";
    EXPECT_FALSE(V.stateFor(Fn).Versions.mostGenericLive());
    EXPECT_EQ(V.eval("len1(1:4)").toInt(), 11);
    V.drainCompiles();
    FnVersion *Ver = V.stateFor(Fn).Versions.mostGenericLive();
    ASSERT_TRUE(Ver);
    EXPECT_FALSE(Ver->code()->low().FoldsBuiltins);
    EXPECT_EQ(V.eval("len1(1:4)").toInt(), 11);
    EXPECT_EQ(stats().Deopts, 0u);
  });
}

TEST(VmBuiltinWatch, OsrInCodeOfATopLevelLoopThatRebindsABuiltin) {
  // The top level assigns length, so only abs folds; the loop's own store
  // of length fails the OSR-in code's epoch check.
  const std::string Loop = R"(
    s <- 0L
    for (i in 1:1000) {
      if (i == 600L) length <- function(v) 2L
      s <- s + abs(-1L) + length(i)
    }
    s
  )";
  std::vector<std::string> Want = baselineValues("", {Loop});
  forStrategiesAndBackends([&](const Vm::Config &C) {
    Vm V(C);
    VmStats Start = stats();
    EXPECT_EQ(V.eval(Loop).show(), Want[0]);
    VmStats D = stats() - Start;
    EXPECT_GE(D.OsrInEntries, 1u);
    EXPECT_EQ(D.BuiltinRebinds, 1u);
    EXPECT_EQ(D.Deopts, 1u);
    EXPECT_EQ(D.DeoptlessSkipBuiltin,
              C.Strategy == TierStrategy::Deoptless ? 1u : 0u);
    if (C.Strategy == TierStrategy::Deoptless)
      expectDeoptCausesAddUp();
  });
}

//===----------------------------------------------------------------------===//
// Element stores that raise leave their variable as it was

TEST(VmElementStore, FailedStoreKeepsItsVector) {
  forStrategiesAndBackends([](const Vm::Config &C) {
    Vm V(C);
    V.eval("v <- c(1, 2)\nw <- c(1, 2)");
    EXPECT_THROW(V.eval("v[[0L]] <- 5"), RError);
    EXPECT_EQ(V.eval("v").show(), "c(1, 2)");
    EXPECT_THROW(V.eval("w[[5000000L]] <- 5"), RError);
    EXPECT_EQ(V.eval("w").show(), "c(1, 2)");
  });
}

TEST(VmElementStore, FailedStoreIntoABuiltinKeepsTheBuiltin) {
  // The store raises before it touches runif's binding, so the builtin
  // watch sees no rebinding and code that folded runif stays live.
  forStrategiesAndBackends([](const Vm::Config &C) {
    Vm V(C);
    V.eval("f <- function(n) length(runif(n))");
    for (int K = 0; K < 5; ++K)
      ASSERT_EQ(V.eval("f(3L)").toInt(), 3);
    EXPECT_THROW(V.eval("runif[[1]] <- 3"), RError);
    EXPECT_EQ(V.eval("runif").tag(), Tag::Builtin);
    EXPECT_EQ(V.eval("f(4L)").toInt(), 4);
    EXPECT_EQ(stats().BuiltinRebinds, 0u);
    EXPECT_EQ(stats().Deopts, 0u);
  });
}

TEST(VmElementStore, FailedStoreInOsrInCodeKeepsItsVector) {
  // OSR-in code of a top-level loop stores into the global v until its
  // last index, 0, raises: v keeps the 299 stores before it.
  forStrategiesAndBackends([](Vm::Config C) {
    C.CompileThreshold = 1000000;
    C.OsrThreshold = 50;
    Vm V(C);
    V.eval("v <- c(1, 2)");
    VmStats Start = stats();
    EXPECT_THROW(V.eval("for (i in 1:300) v[[300L - i]] <- 5"), RError);
    EXPECT_GE((stats() - Start).OsrInEntries, 1u);
    EXPECT_EQ(V.eval("length(v)").toInt(), 299);
    EXPECT_EQ(V.eval("v[[1L]] + v[[299L]]").toReal(), 10.0);
  });
}

TEST(VmElementStore, TypedAccessRaisesAndCopiesLikeTheBaseline) {
  // One warmed function per element kind whose optimized code holds the
  // typed store (int, double, complex) and the typed read (logical too).
  // Each case gives BaselineOnly's value or error: far past the end, a
  // typed store raises as assign2 does rather than grow the vector.
  struct Kind {
    const char *Fn, *Vec, *Elem;
  };
  const Kind Kinds[] = {{"put_i", "c(1L, 2L)", "7L"},
                        {"put_d", "c(1.5, 2.5)", "3.5"},
                        {"put_c", "c(1+1i, 2-1i)", "3+2i"},
                        {"get_l", "c(TRUE, FALSE)", "TRUE"}};
  for (const Kind &K : Kinds) {
    SCOPED_TRACE(K.Fn);
    const std::string Fn = K.Fn, Vec = K.Vec, Elem = K.Elem;
    const bool Store = Fn != "get_l";
    const std::string Setup =
        (Store ? Fn + " <- function(v, i, j, x) { v[[i]] <- x; list(v, "
                      "v[[j]]) }\n"
               : Fn + " <- function(v, i, j, x) v[[j]]\n") +
        "w <- " + Vec;
    auto Call = [&](const std::string &V, const char *I, const char *J) {
      return Fn + "(" + V + ", " + I + ", " + J + ", " + Elem + ")";
    };
    const std::vector<std::string> Exprs = {
        Call(Vec, "0L", "1L"),       // store index 0
        Call(Vec, "3L", "3L"),       // one past the end: the vector grows
        Call(Vec, "5000000L", "1L"), // far past the end
        Call(Vec, "1L", "0L"),       // read index 0
        Call(Vec, "1L", "3L"),       // read past the end
        Call(Elem, "2L", "2L"),      // a scalar container
        Call(Elem, "1L", "1L"),
        Call("w", "1L", "1L"), // shared with the global w
        "w"};
    const std::vector<std::string> Want = baselineValues(Setup, Exprs);
    forStrategiesAndBackends([&](const Vm::Config &C) {
      Vm V(C);
      V.eval(Setup);
      for (int N = 0; N < 5; ++N)
        ASSERT_EQ(V.eval(Call(Vec, "2L", "2L")).length(), Store ? 2 : 1);
      FnVersion *Ver =
          V.stateFor(V.eval(Fn).closObj()->Fn).Versions.mostGenericLive();
      ASSERT_TRUE(Ver);
      const std::string Low = printLow(Ver->code()->low());
      EXPECT_NE(Low.find(" idx2.t "), std::string::npos) << Low;
      EXPECT_EQ(Low.find(" setelem2.t ") != std::string::npos, Store) << Low;
      for (size_t E = 0; E < Exprs.size(); ++E) {
        VmStats Start = stats();
        EXPECT_EQ(valueOrError(V, Exprs[E]), Want[E]) << Exprs[E];
        if (Exprs[E].find("(w,") != std::string::npos) {
          EXPECT_EQ((stats() - Start).CowCopies, Store ? 1u : 0u);
        }
      }
    });
  }
}

TEST(VmElementStore, OutOfRangeDoublesConvertAlikeInEveryTier) {
  // A double index beyond int32 becomes R's NA integer in every tier (the
  // typed code's Coerce too), and a `:` sequence that would leave the
  // int32 range raises where inference typed it an integer vector.
  const std::string Setup = R"(
    pick <- function(v, x) v[[x]]
    tail_of <- function(n) { v <- 2147483600:n; v[[length(v)]] }
    toint <- function(x) as.integer(x)
  )";
  const std::vector<std::string> Exprs = {
      "pick(c(1L, 2L, 3L), 1e10)", "pick(c(1L, 2L, 3L), 0/0)",
      "pick(c(1L, 2L, 3L), -3e9)", "tail_of(2147483647)",
      "tail_of(2147483648)",       "toint(1e10)",
      "toint(0/0)",                "1:(0/0)",
      "3e9:(3e9 + 1)"};
  const std::vector<std::string> Want = baselineValues(Setup, Exprs);
  EXPECT_EQ(Want[0], "Error: subscript out of bounds: -2147483648");
  EXPECT_EQ(Want[4], "Error: integer sequence out of range");
  forStrategiesAndBackends([&](const Vm::Config &C) {
    Vm V(C);
    V.eval(Setup);
    for (int N = 0; N < 5; ++N) {
      ASSERT_EQ(V.eval("pick(c(1L, 2L, 3L), 2)").toInt(), 2);
      ASSERT_EQ(V.eval("tail_of(2147483610)").toInt(), 2147483610);
      ASSERT_EQ(V.eval("toint(2.5)").toInt(), 2);
    }
    for (size_t E = 0; E < Exprs.size(); ++E)
      EXPECT_EQ(valueOrError(V, Exprs[E]), Want[E]) << Exprs[E];
  });
}

TEST(VmElementStore, ContainersOfOneElementKindGetTypedAccess) {
  // Containers whose length inference cannot know are typed by element
  // kind: c(...) of one kind's values, and runif(n) * k and
  // as.numeric(1:n) / n, each a double scalar or vector. Their reads and
  // stores are typed, and every value or error equals BaselineOnly's:
  // in bounds, growth, index 0, far past the end and a length-one
  // container (a scalar for runif(1L) * 500).
  struct Case {
    const char *Fn, *Def, *Warm;
    std::vector<std::string> Exprs;
  };
  const Case Cases[] = {
      {"put_c",
       "function(a, i, x) { v <- c(a, a + 1, 3); v[[i]] <- x; "
       "list(v, v[[i]]) }",
       "put_c(1.5, 2L, 7.5)",
       {"put_c(1.5, 0L, 7.5)", "put_c(1.5, 4L, 7.5)",
        "put_c(1.5, 5000000L, 7.5)", "put_c(2.5, 3L, 1L)"}},
      {"put_ci",
       "function(a, i, x) { v <- c(a, 2L, TRUE); v[[i]] <- x; "
       "list(v, v[[i]]) }",
       "put_ci(5L, 1L, 9L)",
       {"put_ci(5L, 0L, 9L)", "put_ci(5L, 4L, 9L)", "put_ci(5L, 3L, 9L)"}},
      {"put_c1",
       "function(a, i, x) { v <- c(a); v[[i]] <- x; list(v, v[[i]]) }",
       "put_c1(1.5, 1L, 2.5)",
       {"put_c1(1.5, 2L, 2.5)", "put_c1(1.5, 0L, 2.5)",
        "put_c1(1.5, 3L, 2.5)"}},
      {"put_runif",
       "function(n, i, x) { v <- runif(n) * 500; v[[i]] <- x; "
       "v[[i]] + length(v) }",
       "put_runif(10L, 2L, 7.5)",
       {"put_runif(10L, 0L, 1.5)", "put_runif(10L, 11L, 1.5)",
        "put_runif(1L, 1L, 1.5)", "put_runif(1L, 2L, 1.5)",
        "put_runif(10L, 5000000L, 1.5)"}},
      {"put_seq",
       "function(n, i, x) { v <- as.numeric(1:n) / n; v[[i]] <- x; "
       "list(v, v[[i]]) }",
       "put_seq(4L, 2L, 7.5)",
       {"put_seq(4L, 0L, 7.5)", "put_seq(4L, 5L, 7.5)",
        "put_seq(1L, 1L, 7.5)", "put_seq(4L, 3L, 7L)"}},
  };
  for (const Case &K : Cases) {
    SCOPED_TRACE(K.Fn);
    const std::string Setup = std::string(K.Fn) + " <- " + K.Def;
    std::vector<std::string> Exprs = K.Exprs;
    Exprs.insert(Exprs.begin(), K.Warm);
    const std::vector<std::string> Want = baselineValues(Setup, Exprs);
    forStrategiesAndBackends([&](const Vm::Config &C) {
      Vm V(C);
      V.eval(Setup);
      for (int N = 0; N < 5; ++N)
        ASSERT_EQ(valueOrError(V, K.Warm), Want[0]);
      FnVersion *Ver =
          V.stateFor(V.eval(K.Fn).closObj()->Fn).Versions.mostGenericLive();
      ASSERT_TRUE(Ver);
      const std::string Low = printLow(Ver->code()->low());
      EXPECT_NE(Low.find(" idx2.t "), std::string::npos) << Low;
      EXPECT_NE(Low.find(" setelem2.t "), std::string::npos) << Low;
      for (size_t E = 0; E < Exprs.size(); ++E)
        EXPECT_EQ(valueOrError(V, Exprs[E]), Want[E]) << Exprs[E];
    });
  }
}

TEST(VmElementStore, BuiltinCallLeavesItsArgumentUnshared) {
  // length(v) passes v through the builtin call's argument window.
  // Optimized code releases the window when the builtin returns, so the
  // next store into v writes in place instead of copying v on every
  // iteration.
  const std::string Setup =
      "f <- function(n) { v <- numeric(n); for (i in 1:n) "
      "v[[i]] <- length(v) + 0.5; v[[n]] }";
  const std::vector<std::string> Want =
      baselineValues(Setup, {"f(10L)", "f(2000L)"});
  forStrategiesAndBackends([&](const Vm::Config &C) {
    Vm V(C);
    V.eval(Setup);
    for (int N = 0; N < 5; ++N)
      ASSERT_EQ(V.eval("f(10L)").show(), Want[0]);
    ASSERT_TRUE(V.stateFor(V.eval("f").closObj()->Fn)
                    .Versions.mostGenericLive());
    VmStats Start = stats();
    EXPECT_EQ(V.eval("f(2000L)").show(), Want[1]);
    EXPECT_EQ((stats() - Start).CowCopies, 0u);
  });
}

TEST(VmColon, LengthOneVectorLowerBoundIsItsScalar) {
  // R's `:` gives integers whenever its lower bound is integral, a
  // length-one vector as much as a scalar, in every tier.
  const std::string Setup = R"(
    from_c <- function(n) c(1L):n
    from_var <- function(n) { x <- c(2L); x:n }
    from_dbl <- function(n) c(2):n
    from_lgl <- function(n) c(TRUE):n
    from_frac <- function(n) c(2.5):n
    loop_sum <- function(n) { s <- 0L; for (i in c(1L):n) s <- s + i; s }
  )";
  const std::vector<std::string> Exprs = {
      "from_c(3L)",  "from_var(4L)", "from_dbl(4)",  "from_lgl(2L)",
      "from_frac(4)", "loop_sum(10L)", "c(1L):3",     "c(2):4"};
  const std::vector<std::string> Want = baselineValues(Setup, Exprs);
  EXPECT_EQ(Want[0], "c(1L, 2L, 3L)");
  EXPECT_EQ(Want[1], "c(2L, 3L, 4L)");
  EXPECT_EQ(Want[2], "c(2L, 3L, 4L)");
  EXPECT_EQ(Want[3], "c(1L, 2L)");
  EXPECT_EQ(Want[4], "c(2.5, 3.5)");
  EXPECT_EQ(Want[5], "55L");
  forStrategiesAndBackends([&](const Vm::Config &C) {
    Vm V(C);
    V.eval(Setup);
    for (int N = 0; N < 5; ++N)
      for (size_t E = 0; E < Exprs.size(); ++E)
        ASSERT_EQ(V.eval(Exprs[E]).show(), Want[E]) << Exprs[E];
    EXPECT_TRUE(V.stateFor(V.eval("loop_sum").closObj()->Fn)
                    .Versions.mostGenericLive());
  });
}

//===----------------------------------------------------------------------===//
// Random invalidation mode (§5.1 methodology)

TEST(VmInvalidation, InjectedFailuresDeoptNormally) {
  Vm::Config C = cfg(TierStrategy::Normal);
  C.InvalidationRate = 100; // aggressive for the test
  Vm V(C);
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  int64_t Sum = 0;
  for (int K = 0; K < 30; ++K)
    Sum += V.eval("sum_data(ints)").toInt();
  EXPECT_EQ(Sum, 300) << "injected failures must not change results";
  EXPECT_GT(stats().InjectedFailures, 0u);
  EXPECT_GT(stats().Deopts, 0u);
}

TEST(VmInvalidation, DeoptlessAbsorbsInjectedFailures) {
  Vm::Config C = cfg(TierStrategy::Deoptless);
  C.InvalidationRate = 100;
  Vm V(C);
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  int64_t Sum = 0;
  for (int K = 0; K < 30; ++K)
    Sum += V.eval("sum_data(ints)").toInt();
  EXPECT_EQ(Sum, 300);
  EXPECT_GT(stats().InjectedFailures, 0u);
  EXPECT_GT(stats().DeoptlessCompiles + stats().DeoptlessHits, 0u)
      << "injected failures should be handled by deoptless";
}

TEST(VmInvalidation, CrossThreadInjectionDuringHotDispatch) {
  // Vm::injectInvalidation is the one Vm entry point callable from a
  // non-executor thread (the server bench's chaos injector). The executor
  // consumes pending injections at its own dispatch boundary and arms the
  // thread-local countdown there, so the native tier's non-atomic
  // countdown loads never race and version-table mutation stays on the
  // executor — this runs under the TSan CI job to prove it.
  for (TierStrategy S : {TierStrategy::Normal, TierStrategy::Deoptless}) {
    Vm V(cfg(S));
    V.eval(SumProgram);
    V.eval("ints <- c(1L, 2L, 3L, 4L)");
    for (int K = 0; K < 10; ++K) // get the optimized version hot first
      V.eval("sum_data(ints)");
    VmStats Start = stats();
    std::atomic<bool> Stop{false};
    std::thread Injector([&] {
      while (!Stop.load(std::memory_order_relaxed)) {
        V.injectInvalidation();
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    });
    // Keep dispatching until a few injections have demonstrably fired
    // (the injector thread may take milliseconds to get scheduled at
    // all); the cap bounds the test if injection is broken outright.
    int64_t Sum = 0;
    int Evals = 0;
    const int MinEvals = 400, MaxEvals = 400000;
    while (Evals < MaxEvals &&
           (Evals < MinEvals || (stats() - Start).InjectedFailures < 3)) {
      Sum += V.eval("sum_data(ints)").toInt();
      ++Evals;
    }
    Stop.store(true, std::memory_order_relaxed);
    Injector.join();
    EXPECT_EQ(Sum, static_cast<int64_t>(Evals) * 10)
        << "cross-thread injection must never change results (strategy "
        << static_cast<int>(S) << ")";
    VmStats D = stats() - Start;
    EXPECT_GT(D.InjectedFailures, 0u)
        << "injections must actually reach a guard (strategy "
        << static_cast<int>(S) << ")";
    if (S == TierStrategy::Deoptless) {
      EXPECT_GT(D.DeoptlessHits + D.DeoptlessCompiles, 0u);
    }
  }
}

//===----------------------------------------------------------------------===//
// Profile-driven reoptimization comparator (Fig. 11)

TEST(VmReopt, SamplingRecompilesOnProfileChange) {
  Vm V(cfg(TierStrategy::ProfileDrivenReopt));
  // A function whose profile changes without any deopt: warmed on a list
  // of ints and reals, `+` compiles generic (no typecheck guard on the
  // container contents), so complex elements run the optimized code
  // unguarded and only a sampled baseline run sees the new type.
  V.eval(R"(
    mix <- function(l) {
      s <- 0
      for (i in 1:length(l)) s <- s + l[[i]]
      s
    }
  )");
  V.eval("a <- list(1L, 2.5, 3L)");
  V.eval("b <- list(1i, 2i, 3i)");
  for (int K = 0; K < 10; ++K)
    V.eval("mix(a)");
  // Two sampling periods: every 20th call of a version samples.
  for (int K = 0; K < 40; ++K)
    EXPECT_EQ(V.eval("mix(b)").show(), "0+6i");
  EXPECT_GE(stats().Reoptimizations, 1u);
  EXPECT_EQ(stats().Deopts, 0u);
}

//===----------------------------------------------------------------------===//
// Graveyard lifecycle: a retired executable — LowCode- or native-backed —
// must land in the graveyard first (its frames may still be live when the
// deopt handler runs), then be reclaimed by the dispatch-boundary
// safepoint once its retire epoch drains; teardown reclaims whatever the
// safepoints didn't. Observable through the GraveyardSize gauge.

TEST(VmGraveyard, RetiredExecutablesAreGraveyardedThenReclaimed) {
  for (bool Native : {false, true}) {
    if (Native && !nativeBackendSupported())
      continue;
    Vm::Config C = cfg(TierStrategy::Normal);
    C.NativeTier = Native;
    {
      Vm V(C);
      V.eval(SumProgram);
      for (int K = 0; K < 5; ++K)
        V.eval("sum_data(1:50)");
      ASSERT_EQ(stats().GraveyardSize, 0u)
          << "nothing retired yet (native=" << Native << ")";
      // Phase change: the int-speculated version deopts and is retired.
      // No dispatch happens between the retire and this assert (the eval
      // finishes in the baseline), so the safepoint hasn't run yet and
      // the retired executable must still be graveyarded, not freed.
      V.eval("sum_data(as.numeric(1:50))");
      EXPECT_GT(stats().Deopts, 0u);
      EXPECT_GT(stats().GraveyardSize, 0u)
          << "the retired executable must be graveyarded, not freed "
             "(native="
          << Native << ")";
      if (Native) {
        EXPECT_GT(stats().NativeCompiles, 0u);
        EXPECT_GT(stats().NativeEnters, 0u)
            << "the retired code must actually have run natively";
      }
      // The next closure dispatch is a safepoint with no optimized
      // activation live: every graveyarded entry's epoch is drained, so
      // reclamation happens mid-run, well before teardown.
      V.eval("sum_data(as.numeric(1:50))");
      EXPECT_EQ(stats().GraveyardSize, 0u)
          << "the dispatch-boundary safepoint must reclaim drained "
             "entries mid-run (native="
          << Native << ")";
    }
  }
}

TEST(VmGraveyard, TeardownReclaimsWhatTheLastCallRetired) {
  // The Vm's last call deopts and retires its version, and no dispatch
  // boundary follows it: teardown reclaims the graveyard. The Vm's
  // counters go with it, so the trace's retire/reclaim events witness the
  // teardown.
  Vm::Config C = cfg(TierStrategy::Normal);
  C.Trace.Enabled = true;
  obs::traceReset();
  {
    Vm V(C);
    V.eval(SumProgram);
    for (int K = 0; K < 5; ++K)
      V.eval("sum_data(1:50)");
    V.eval("sum_data(as.numeric(1:50))");
    EXPECT_GT(stats().Deopts, 0u);
    EXPECT_GT(stats().GraveyardSize, 0u)
        << "no dispatch boundary has passed since the retire";
  }
  EXPECT_GT(obs::traceCountOf(obs::TraceEv::Retire), 0u);
  EXPECT_EQ(obs::traceCountOf(obs::TraceEv::Reclaim),
            obs::traceCountOf(obs::TraceEv::Retire))
      << "teardown must reclaim retired executables";
}

TEST(VmGraveyard, StaleOsrCodeIsReclaimed) {
  // Every entry into OSR-in code fails its first guard check (injected),
  // which retires the code from its OSR-in entry; the next hot backedge
  // compiles it again into the same entry. Retired code leaves through
  // the graveyard, so the live W^X mappings stay bounded over 4,000
  // invalidate/recompile cycles, synchronously and with a 0-thread pool
  // drained each round.
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native tier on this host";
  CompilerPool Pool(/*Threads=*/0);
  for (bool Background : {false, true}) {
    Vm::Config C = osrOnly(TierStrategy::Normal, 50);
    C.NativeTier = true;
    C.Pool = Background ? &Pool : nullptr;
    C.InvalidationRate = 1;
    Vm V(C);
    V.eval("g <- function(x) x + 1L");
    V.eval("loop <- function(n) { s <- 0L\nfor (i in 1:n) s <- s + "
           "g(i)\ns }");
    VmStats Start = stats();
    size_t Peak = 0;
    for (int Round = 0;
         Round < 8000 && (stats() - Start).OsrInCompilations < 4000; ++Round) {
      ASSERT_EQ(V.eval("loop(100L)").toInt(), 5150);
      V.drainCompiles();
      Peak = std::max(Peak, V.backend()->liveCodeBlocks());
    }
    VmStats D = stats() - Start;
    EXPECT_GE(D.OsrInCompilations, 4000u) << "background " << Background;
    EXPECT_GE(D.OsrInEntries, 3999u) << "background " << Background;
    EXPECT_LE(Peak, 8u) << "background " << Background;
  }
}

TEST(VmGraveyard, ReoptStormKeepsMemoryBounded) {
  // The soak test behind the ROADMAP's "unbounded code growth under
  // reopt-heavy long-running traffic" concern: injected guard failures
  // force a deopt -> retire -> re-warm -> recompile cycle over and over.
  // Each definition of sum_data absorbs DeoptBlacklist deopts and then
  // stays in the baseline, leaving no live code; the storm moves on to a
  // fresh definition, so it keeps cycling for as long as the test runs.
  // Without safepoint reclamation the graveyard grows by one executable
  // per cycle; with it, the high-water must stay a small constant, and
  // for the native tier the per-function W^X mappings must actually be
  // returned (live mappings stay near the live-version count while the
  // compile counter keeps climbing).
  for (bool Native : {false, true}) {
    if (Native && !nativeBackendSupported())
      continue;
    Vm::Config C = cfg(TierStrategy::Normal);
    C.NativeTier = Native;
    C.CompileThreshold = 2;
    // Versions only: OSR-in code a definition left behind would stay live.
    C.OsrThreshold = 0;
    C.InvalidationRate = 4; // 1-in-4 guard checks fail (§5.1 mode)
    C.InvalidationSeed = 7;
    Vm V(C);
    // Three budgets are 150 reopt cycles, well over the 100 the bound is
    // asserted across. The nightly soak tier (RJIT_SOAK=1, `soak` ctest
    // label) multiplies the storm length under the sanitizers.
    const char *Soak = std::getenv("RJIT_SOAK");
    const uint32_t Definitions =
        3 * ((Soak && *Soak && *Soak != '0') ? 5 : 1);
    VmStats Start = stats();
    for (uint32_t Def = 0; Def < Definitions; ++Def) {
      V.eval(SumProgram);
      TierState &TS = V.stateFor(V.eval("sum_data").closObj()->Fn);
      FnVersion *Root = nullptr;
      for (int Evals = 0;
           !(Root = TS.Versions.exact(genericContext(1))) ||
           !Root->Blacklisted;
           ++Evals) {
        ASSERT_LT(Evals, 2000) << "definition " << Def
                               << " must exhaust its deopt budget";
        V.eval("sum_data(1:40)");
      }
      EXPECT_EQ(Root->DeoptCount, DeoptBlacklist);
    }
    VmStats D = stats() - Start;
    EXPECT_EQ(D.Deopts, Definitions * DeoptBlacklist)
        << "the storm must actually drive reopt cycles (native=" << Native
        << ")";
    EXPECT_GE(D.Compilations, 100u);
    EXPECT_LT(D.GraveyardSize.highWater(), 8u)
        << "retired code must be reclaimed between cycles, not "
           "accumulated (native="
        << Native << ")";
    if (Native) {
      EXPECT_GE(D.NativeCompiles, 100u);
      EXPECT_LE(V.backend()->liveCodeBlocks(), 16u)
          << "reclaim must unmap native code, not just delete wrappers: "
             "live W^X mappings can't track the compile count";
    }
  }
}

//===----------------------------------------------------------------------===//
// Heavier cross-strategy equivalence

TEST(VmEquivalence, AllStrategiesAgreeOnMixedWorkload) {
  const char *Setup = R"(
    work <- function(v, n) {
      acc <- 0
      for (k in 1:n) {
        for (i in 1:length(v)) {
          x <- v[[i]]
          if (x > 2) acc <- acc + x * 2 else acc <- acc - x
        }
      }
      acc
    }
  )";
  const char *Drive = R"(
    r1 <- work(c(1L, 2L, 3L, 4L), 30L)
    r2 <- work(c(0.5, 2.5, 4.5), 30L)
    r3 <- work(c(1L, 2L, 3L, 4L), 5L)
    r1 + r2 + r3
  )";
  double Results[3];
  TierStrategy Strategies[] = {TierStrategy::BaselineOnly,
                               TierStrategy::Normal,
                               TierStrategy::Deoptless};
  for (int S = 0; S < 3; ++S) {
    Vm V(cfg(Strategies[S]));
    V.eval(Setup);
    Results[S] = V.eval(Drive).toReal();
  }
  EXPECT_DOUBLE_EQ(Results[0], Results[1]);
  EXPECT_DOUBLE_EQ(Results[0], Results[2]);
}
