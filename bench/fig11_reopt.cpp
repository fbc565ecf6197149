//===-- bench/fig11_reopt.cpp - Fig. 11: vs profile-driven reopt -----------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Reproduces Fig. 11: the three benchmarks of the profile-driven
// reoptimization paper (DLS'20), run against deoptless. The expectation
// (paper §5.2): deoptless only improves `rsa`, where the phase change is
// accompanied by a deoptimization; `microbenchmark` (stale feedback, no
// deopt) and `shared` (merged feedback from two callers, no deopt) are
// unchanged. The ProfileDrivenReopt strategy is also run as the
// comparator.
//
// Usage: fig11_reopt [--iters N] [--execs M]
//
//===----------------------------------------------------------------------===//

#include "suite/harness.h"

#include <cstdio>

using namespace rjit;
using namespace rjit::suite;

namespace {

struct Bench {
  const char *Name;
  std::string Setup;      ///< after the program's setup: the warm phase
  std::string ChangedPre; ///< starts the changed phase, a third in
  std::string Driver;
};

std::vector<Bench> benches() {
  return {
      // Stale type feedback: the branchy profile stabilizes, no deopt.
      {"microbenchmark",
       "micro_data <- as.numeric(1:3000)\nmicro_flag <- TRUE",
       "micro_flag <- TRUE", "micro_f(micro_data, micro_flag)"},
      // The key parameter changes its type (int -> double): deopt.
      {"rsa", "key <- 65L", "key <- 65", "rsa_run(key, 300L)"},
      // A helper shared by differently-typed callers: merged feedback.
      {"shared", "", "", "shared_caller_int(1500L) + "
                         "shared_caller_real(1500L)"},
  };
}

} // namespace

int main(int Argc, char **Argv) {
  benchObsInit(Argc, Argv);
  int Iters = static_cast<int>(argLong(Argc, Argv, "--iters", 15));
  int Execs = static_cast<int>(argLong(Argc, Argv, "--execs", 2));

  BenchReport R;
  R.Name = "fig11_reopt";
  R.Config =
      "iters=" + std::to_string(Iters) + " execs=" + std::to_string(Execs);

  printf("# Fig. 11 — reoptimization benchmarks (DLS'20 comparison)\n");
  printf("# speedup of deoptless over normal per iteration (the paper "
         "expects rsa to improve, the others to stay at 1x)\n");
  printf("%-16s %10s %10s | per-iteration deoptless speedups\n",
         "benchmark", "deoptless", "reopt");
  std::vector<Arm> Arms = paperArms();
  Arms.push_back({"reopt", benchConfig(TierStrategy::ProfileDrivenReopt)});
  for (const Bench &B : benches()) {
    Session S{B.Name, std::string(byName(B.Name)->Setup) + "\n" + B.Setup,
              {}};
    S.repeat(Iters / 3, B.Driver)
        .repeat(Iters - Iters / 3, B.Driver, B.ChangedPre);
    SessionRun Run = runArms(R, S, Arms, Execs);
    std::vector<double> RatioD(Iters), RatioR(Iters);
    for (int K = 0; K < Iters; ++K) {
      RatioD[K] = Run[0].Times[K] / Run[1].Times[K];
      RatioR[K] = Run[0].Times[K] / Run[2].Times[K];
    }
    printf("%-16s %9.2fx %9.2fx |", B.Name, geomean(RatioD),
           geomean(RatioR));
    for (int K = 0; K < Iters; ++K)
      printf(" %.2f", RatioD[K]);
    printf("\n");
    R.headline(std::string("speedup_dl_") + B.Name, geomean(RatioD));
    R.headline(std::string("speedup_reopt_") + B.Name, geomean(RatioR));
  }
  printf("\n# (paper: deoptless matches profile-driven reopt's best case "
         "on rsa (~1.4x) and does not help the other two)\n");
  return emitBenchArtifacts(R, Argc, Argv);
}
