//===-- tests/programs_test.cpp - Suite programs under every strategy ------===//
//
// Runs every benchmark program under BaselineOnly / Normal / Deoptless and
// checks that the results agree — the broadest integration coverage in the
// repository: every optimizer feature is exercised by some program.
//
//===----------------------------------------------------------------------===//

#include "suite/programs.h"
#include "support/stats.h"
#include "vm/vm.h"

#include <gtest/gtest.h>

using namespace rjit;
using namespace rjit::suite;

namespace {

Vm::Config cfg(TierStrategy S) {
  Vm::Config C;
  C.Strategy = S;
  C.CompileThreshold = 2;
  C.OsrThreshold = 100;
  return C;
}

double runProgram(const Program &P, TierStrategy S, int Iters = 3) {
  Vm V(cfg(S));
  V.eval(P.Setup);
  Value R;
  double Sum = 0;
  for (int K = 0; K < Iters; ++K) {
    R = V.eval(P.Driver);
    Sum += R.toReal();
  }
  return Sum;
}

class SuitePrograms : public ::testing::TestWithParam<const Program *> {};

} // namespace

TEST_P(SuitePrograms, StrategiesAgree) {
  const Program &P = *GetParam();
  double Base = runProgram(P, TierStrategy::BaselineOnly);
  double Norm = runProgram(P, TierStrategy::Normal);
  double DL = runProgram(P, TierStrategy::Deoptless);
  EXPECT_DOUBLE_EQ(Base, Norm) << P.Name;
  EXPECT_DOUBLE_EQ(Base, DL) << P.Name;
}

TEST_P(SuitePrograms, SurvivesRandomInvalidation) {
  const Program &P = *GetParam();
  double Base = runProgram(P, TierStrategy::BaselineOnly, 2);
  Vm::Config C = cfg(TierStrategy::Deoptless);
  C.InvalidationRate = 5000;
  double Sum = 0;
  {
    Vm V(C);
    V.eval(P.Setup);
    for (int K = 0; K < 2; ++K)
      Sum += V.eval(P.Driver).toReal();
  }
  EXPECT_DOUBLE_EQ(Base, Sum) << P.Name;
}

namespace {

std::vector<const Program *> allPrograms() {
  std::vector<const Program *> All;
  size_t N;
  const Program *P = mainSuite(N);
  for (size_t K = 0; K < N; ++K)
    All.push_back(&P[K]);
  P = extras(N);
  for (size_t K = 0; K < N; ++K)
    All.push_back(&P[K]);
  return All;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(All, SuitePrograms,
                         ::testing::ValuesIn(allPrograms()),
                         [](const ::testing::TestParamInfo<const Program *>
                                &Info) {
                           std::string N = Info.param->Name;
                           for (char &C : N)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });

TEST(SuiteLookup, ByNameFindsEverything) {
  for (const Program *P : allPrograms())
    EXPECT_EQ(byName(P->Name), P);
  EXPECT_EQ(byName("no-such-program"), nullptr);
}

TEST(SuiteSessions, RaytraceFunctionSwitchStaysDeoptless) {
  // Fig. 9's second session: `interp` is rebound from interp_bilinear to
  // interp_nearest. The version's call-target guard fails before the
  // outer loop, and its continuation must not speculate on the old
  // binding at the other call through `interp`, nor retype the locals
  // the loop has not assigned yet: no true deopt, no guard failing
  // inside the continuation, and every later call hits it. Without the
  // §4.3 feedback cleanup (the paper's ablation) the continuation does
  // speculate on the old binding: its guard fails inside it, which is a
  // true deopt. Either way the results are the baseline's.
  const char *Cast = "cast_rays(hm, 20L, interp, 0.7, 0.4)";
  std::string Want;
  {
    Vm Base(cfg(TierStrategy::BaselineOnly));
    Base.eval(byName("raytrace")->Setup);
    Base.eval("hm <- make_heightmap(20L)\ninterp <- interp_nearest");
    Want = Base.eval(Cast).show();
  }
  for (bool Cleanup : {true, false}) {
    SCOPED_TRACE(Cleanup ? "cleanup on" : "cleanup off");
    Vm::Config C = cfg(TierStrategy::Deoptless);
    C.CompileThreshold = 3;
    C.OsrThreshold = 100000;
    C.NativeTier = false;
    C.FeedbackCleanup = Cleanup;
    Vm V(C);
    V.eval(byName("raytrace")->Setup);
    V.eval("hm <- make_heightmap(20L)");
    V.eval("interp <- interp_bilinear");
    for (int K = 0; K < 4; ++K)
      V.eval(Cast);
    V.eval("interp <- interp_nearest");
    VmStats Start = stats();
    for (int K = 0; K < 4; ++K) {
      VmStats Before = stats();
      EXPECT_EQ(V.eval(Cast).show(), Want);
      VmStats D = stats() - Before;
      if (Cleanup && K > 0) {
        EXPECT_EQ(D.DeoptlessHits, 1u) << "call " << K;
      }
    }
    VmStats D = stats() - Start;
    if (Cleanup) {
      EXPECT_EQ(D.Deopts, 0u);
      EXPECT_EQ(D.DeoptlessSkipRecursive, 0u);
      EXPECT_EQ(D.DeoptlessCompiles, 1u);
    } else {
      EXPECT_GE(D.Deopts, 1u);
      EXPECT_EQ(D.Deopts, D.DeoptlessSkipRecursive);
    }
  }
}
