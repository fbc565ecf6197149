//===-- tests/bench_harness_test.cpp - The figures' A/B protocol ----------===//
//
// Checks suite::runArms, the protocol every figure bench runs: ABBA order
// over fresh Vms, one time per timed step and arm, counters from each
// arm's own Vm, and every evaluation checked against BaselineOnly.
//
//===----------------------------------------------------------------------===//

#include "suite/harness.h"

#include <gtest/gtest.h>

using namespace rjit;
using namespace rjit::suite;

namespace {

const char *LoopSetup = R"(
total <- function(v) {
  s <- 0
  for (i in 1:length(v)) s <- s + v[[i]]
  s
}
x <- as.numeric(1:300)
)";

/// A bench command line whose report goes nowhere.
const char *NoReport[] = {"bench_harness_test", "--json", "/dev/null"};

/// Normal and Deoptless with injected guard failures: total() checks two
/// assumptions per call, so one in four fails.
std::vector<Arm> invalidatedArms() {
  std::vector<Arm> Arms = paperArms();
  for (Arm &A : Arms) {
    A.Cfg.InvalidationRate = 4;
    A.Cfg.InvalidationSeed = 7;
  }
  return Arms;
}

TEST(BenchHarness, ArmsAlternateAndKeepTheirOwnCounters) {
  Session S{"loop", LoopSetup, {}};
  for (int K = 0; K < 2; ++K)
    S.Steps.push_back({"", "total(x)", /*Warmup=*/true});
  S.repeat(6, "total(x)");
  BenchReport R;
  SessionRun Run = runArms(R, S, invalidatedArms(), 2);

  // Execution 0 runs the table in order, execution 1 reversed.
  EXPECT_EQ(Run.Order, (std::vector<size_t>{0, 1, 1, 0}));
  ASSERT_EQ(Run.Arms.size(), 2u);
  for (const ArmRun &A : Run.Arms) {
    EXPECT_EQ(A.Times.size(), 6u); // timed steps only, warmup excluded
    EXPECT_EQ(A.Fastest.size(), 6u);
    for (size_t K = 0; K < A.Times.size(); ++K) {
      EXPECT_GT(A.Times[K], 0.0);
      EXPECT_LE(A.Fastest[K], A.Times[K]);
    }
    EXPECT_GT(A.Stats.InjectedFailures, 0u);
  }
  // Only the deoptless arm's Vms dispatch to continuations; only the
  // normal arm's deopt on every injected failure.
  EXPECT_EQ(Run[0].Stats.DeoptlessHits, 0u);
  EXPECT_GT(Run[0].Stats.Deopts, 0u);
  EXPECT_GT(Run[1].Stats.DeoptlessHits, 0u);

  EXPECT_EQ(R.WrongResults, 0u);
  ASSERT_EQ(R.Series.size(), 2u);
  EXPECT_EQ(R.Series[0].Label, "loop/normal");
  EXPECT_EQ(R.Series[1].Label, "loop/deoptless");
  EXPECT_EQ(R.Series[0].Times, Run[0].Times);
}

TEST(BenchHarness, ValueThatDiffersFromReferenceFailsTheRun) {
  // The reference evaluates a distinct step once per phase, so a timed
  // expression that is not repeatable differs from it on every repeat:
  // here the second and third steps, in each of the four Vms.
  Session S{"", "k <- 0L", {}};
  S.repeat(3, "k <- k + 1L");
  BenchReport R;
  runArms(R, S, invalidatedArms(), 2);
  EXPECT_EQ(R.WrongResults, 8u);

  EXPECT_EQ(emitBenchArtifacts(R, 3, const_cast<char **>(NoReport)), 1);
}

TEST(BenchHarness, NewPhaseGetsItsOwnReference) {
  // A Pre starts a phase: the same expression is checked against the
  // value it has after the change.
  Session S{"", "d <- 1:10", {}};
  S.repeat(2, "sum(d)").repeat(2, "sum(d)", "d <- as.numeric(1:20)");
  BenchReport R;
  runArms(R, S, paperArms(), 2);
  EXPECT_EQ(R.WrongResults, 0u);
  EXPECT_EQ(emitBenchArtifacts(R, 3, const_cast<char **>(NoReport)), 0);
}

} // namespace
