//===-- tests/support_test.cpp - Support library unit tests ----------------===//

#include "runtime/context.h"
#include "support/interner.h"
#include "support/relaxed.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/timer.h"

#include <gtest/gtest.h>

#include <set>

using namespace rjit;

TEST(Rng, Deterministic) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(123), B(124);
  bool AnyDiff = false;
  for (int I = 0; I < 10; ++I)
    AnyDiff |= A.next() != B.next();
  EXPECT_TRUE(AnyDiff);
}

TEST(Rng, BelowInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng R(9);
  for (int I = 0; I < 1000; ++I) {
    double X = R.uniform();
    EXPECT_GE(X, 0.0);
    EXPECT_LT(X, 1.0);
  }
}

TEST(Rng, OneInApproximatesRate) {
  Rng R(11);
  int Hits = 0;
  const int N = 100000;
  for (int I = 0; I < N; ++I)
    Hits += R.oneIn(100);
  EXPECT_GT(Hits, N / 100 / 2);
  EXPECT_LT(Hits, N / 100 * 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng R(5);
  uint64_t First = R.next();
  R.next();
  R.reseed(5);
  EXPECT_EQ(R.next(), First);
}

TEST(Interner, RoundTrip) {
  Symbol A = symbol("foo");
  Symbol B = symbol("bar");
  EXPECT_NE(A, B);
  EXPECT_EQ(symbol("foo"), A);
  EXPECT_EQ(symbolName(A), "foo");
  EXPECT_EQ(symbolName(B), "bar");
}

TEST(Interner, ManySymbolsStayDistinct) {
  std::set<Symbol> Seen;
  for (int I = 0; I < 1000; ++I)
    Seen.insert(symbol("sym" + std::to_string(I)));
  EXPECT_EQ(Seen.size(), 1000u);
}

TEST(Stats, DiffSubtracts) {
  VmStats A, B;
  A.Deopts = 10;
  A.Compilations = 4;
  B.Deopts = 3;
  B.Compilations = 1;
  VmStats D = A - B;
  EXPECT_EQ(D.Deopts, 7u);
  EXPECT_EQ(D.Compilations, 3u);
}

TEST(Stats, SumAddsCountersAndKeepsThePeakGauge) {
  // Summing two Vms' counters (the server harness's per-phase total):
  // counters add, a gauge takes the later level and the higher peak.
  VmStats A, B;
  A.Deopts = 10;
  A.GraveyardSize.setLevel(5);
  A.GraveyardSize.setLevel(1);
  B.Deopts = 3;
  B.GraveyardSize.setLevel(2);
  A += B;
  EXPECT_EQ(A.Deopts, 13u);
  EXPECT_EQ(A.GraveyardSize.value(), 2u);
  EXPECT_EQ(A.GraveyardSize.highWater(), 5u);
}

TEST(Stats, NameTheCallingThreadsContext) {
  ExecContext C;
  {
    ContextScope Installed(C);
    EXPECT_EQ(&stats(), &C.Stats);
    stats().Deopts += 5;
  }
  EXPECT_EQ(C.Stats.Deopts, 5u);
  EXPECT_NE(&stats(), &C.Stats) << "outside the scope: the process default";
  ExecContext Fresh;
  EXPECT_EQ(Fresh.Stats.Deopts, 0u) << "a context's counters start at zero";
}

TEST(Timer, MeasuresSomething) {
  Timer T;
  volatile double Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink += I;
  EXPECT_GT(T.elapsedNanos(), 0u);
  EXPECT_GE(T.elapsedSeconds(), 0.0);
}

TEST(RelaxedGauge, AddSubTracksLevel) {
  RelaxedGauge G;
  EXPECT_EQ(G.value(), 0u);
  G.add(3);
  G.add();
  EXPECT_EQ(G.value(), 4u);
  G.sub(2);
  EXPECT_EQ(G.value(), 2u);
  G.sub();
  EXPECT_EQ(G.value(), 1u);
}

TEST(RelaxedGauge, HighWaterIsMonotone) {
  RelaxedGauge G;
  G.add(5);
  G.sub(5);
  G.add(2);
  EXPECT_EQ(G.value(), 2u);
  EXPECT_EQ(G.highWater(), 5u);
  G.add(10);
  EXPECT_EQ(G.highWater(), 12u);
}

TEST(RelaxedGauge, SubSaturatesAtZero) {
  RelaxedGauge G;
  G.add(2);
  G.sub(10);
  EXPECT_EQ(G.value(), 0u);
  G.add(1);
  EXPECT_EQ(G.value(), 1u);
  EXPECT_EQ(G.highWater(), 2u);
}

TEST(RelaxedGauge, CopyPreservesBothLevels) {
  RelaxedGauge G;
  G.add(7);
  G.sub(4);
  RelaxedGauge C(G);
  EXPECT_EQ(C.value(), 3u);
  EXPECT_EQ(C.highWater(), 7u);
  RelaxedGauge A;
  A = G;
  EXPECT_EQ(A.value(), 3u);
  EXPECT_EQ(A.highWater(), 7u);
}

TEST(RelaxedCounter, RecordMaxKeepsMaximum) {
  RelaxedCounter C;
  C.recordMax(5);
  C.recordMax(3);
  EXPECT_EQ(C.load(), 5u);
  C.recordMax(9);
  EXPECT_EQ(C.load(), 9u);
}
