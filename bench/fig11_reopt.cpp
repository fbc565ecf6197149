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
  /// Phase scripts: [0] warm phase pre-eval, [1] changed phase pre-eval.
  std::string WarmPre, ChangedPre;
  std::string Driver;
};

std::vector<Bench> benches() {
  return {
      // Stale type feedback: the branchy profile stabilizes, no deopt.
      {"microbenchmark", "micro_flag <- TRUE", "micro_flag <- TRUE",
       "micro_f(micro_data, micro_flag)"},
      // The key parameter changes its type (int -> double): deopt.
      {"rsa", "key <- 65L", "key <- 65", "rsa_run(key, 300L)"},
      // A helper shared by differently-typed callers: merged feedback.
      {"shared", "", "", "shared_caller_int(1500L) + "
                         "shared_caller_real(1500L)"},
  };
}

std::vector<double> runMode(const Bench &B, TierStrategy S, int Iters,
                            RunStats &Out) {
  const Program *P = byName(B.Name);
  Vm V(benchConfig(S));
  V.eval(P->Setup);
  if (B.Name == std::string("microbenchmark"))
    V.eval("micro_data <- as.numeric(1:3000)");
  if (!B.WarmPre.empty())
    V.eval(B.WarmPre);
  VmStats Start = openWindow();
  std::vector<double> Times;
  for (int K = 0; K < Iters; ++K) {
    if (K == Iters / 3 && !B.ChangedPre.empty())
      V.eval(B.ChangedPre);
    Times.push_back(timeOnce(V, B.Driver));
  }
  Out = runStats(Start);
  return Times;
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
  for (const Bench &B : benches()) {
    std::vector<double> AccDl(Iters, 0.0);
    double SpDl = 0, SpRe = 0;
    for (int E = 0; E < Execs; ++E) {
      RunStats Sn, Sd, Sr;
      std::vector<double> Tn = runMode(B, TierStrategy::Normal, Iters, Sn);
      if (E == 0)
        R.add(std::string(B.Name) + "/normal", Tn, Sn);
      std::vector<double> Td =
          runMode(B, TierStrategy::Deoptless, Iters, Sd);
      if (E == 0)
        R.add(std::string(B.Name) + "/deoptless", Td, Sd);
      std::vector<double> Tr =
          runMode(B, TierStrategy::ProfileDrivenReopt, Iters, Sr);
      if (E == 0)
        R.add(std::string(B.Name) + "/reopt", Tr, Sr);
      std::vector<double> RatioD(Iters), RatioR(Iters);
      for (int K = 0; K < Iters; ++K) {
        RatioD[K] = Tn[K] / Td[K];
        RatioR[K] = Tn[K] / Tr[K];
        AccDl[K] += RatioD[K] / Execs;
      }
      SpDl += geomean(RatioD) / Execs;
      SpRe += geomean(RatioR) / Execs;
    }
    printf("%-16s %9.2fx %9.2fx |", B.Name, SpDl, SpRe);
    for (int K = 0; K < Iters; ++K)
      printf(" %.2f", AccDl[K]);
    printf("\n");
    R.headline(std::string("speedup_dl_") + B.Name, SpDl);
    R.headline(std::string("speedup_reopt_") + B.Name, SpRe);
  }
  printf("\n# (paper: deoptless matches profile-driven reopt's best case "
         "on rsa (~1.4x) and does not help the other two)\n");
  emitBenchArtifacts(R, Argc, Argv);
  return 0;
}
