//===-- bench/fig04_sum.cpp - Fig. 4: the motivating example ---------------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Reproduces Fig. 4: the naive `sum` over a vector whose element type
// changes between phases (int -> float -> complex -> float), comparing a
// normal deoptimizing VM against deoptless. The paper plots seconds per
// iteration on a log scale: normal shows a deopt spike + permanently slower
// code after each phase change; deoptless shows a one-iteration compile
// bump and then recovers, and the final float phase is as fast as the
// first because the original code was never discarded.
//
// Usage: fig04_sum [--n <elements>] [--iters <per-phase>]
//
//===----------------------------------------------------------------------===//

#include "suite/harness.h"
#include "support/stats.h"

#include <cstdio>

using namespace rjit;
using namespace rjit::suite;

namespace {

struct Phase {
  const char *Name;
  std::string Data;
};

std::vector<double> runMode(TierStrategy S, long N, int PerPhase,
                            RunStats &Out) {
  const Program *Sum = byName("sum");
  Vm V(benchConfig(S));
  V.eval(Sum->Setup);

  Phase Phases[] = {
      {"warmup-int", "data <- 1:" + std::to_string(N)},
      {"float", "data <- as.numeric(1:" + std::to_string(N) + ")"},
      {"complex", "data <- as.complex(1:" + std::to_string(N) + ")"},
      {"float2", "data <- as.numeric(1:" + std::to_string(N) + ")"},
  };

  VmStats Start = openWindow();
  std::vector<double> Times;
  for (const Phase &P : Phases) {
    V.eval(P.Data);
    for (int K = 0; K < PerPhase; ++K)
      Times.push_back(timeOnce(V, "sum_data(data)"));
  }
  Out = runStats(Start);
  return Times;
}

} // namespace

int main(int Argc, char **Argv) {
  benchObsInit(Argc, Argv);
  long N = argLong(Argc, Argv, "--n", 200000);
  int PerPhase = static_cast<int>(argLong(Argc, Argv, "--iters", 5));

  BenchReport R;
  R.Name = "fig04_sum";
  R.Config = "n=" + std::to_string(N) +
             " iters=" + std::to_string(PerPhase);

  RunStats NormalStats, DlStats;
  std::vector<double> Normal =
      runMode(TierStrategy::Normal, N, PerPhase, NormalStats);
  R.add("normal", Normal, NormalStats);
  std::vector<double> Dl =
      runMode(TierStrategy::Deoptless, N, PerPhase, DlStats);
  R.add("deoptless", Dl, DlStats);

  printf("# Fig. 4 — sum over %ld elements; phases: int, float, complex, "
         "float (%d iterations each)\n",
         N, PerPhase);
  printf("# seconds per iteration (the paper plots this on a log scale)\n");
  printf("%-10s %-10s %12s %12s\n", "phase", "iteration", "normal",
         "deoptless");
  const char *PhaseNames[] = {"int", "float", "complex", "float2"};
  for (size_t K = 0; K < Normal.size(); ++K)
    printf("%-10s %-10zu %12.6f %12.6f\n", PhaseNames[K / PerPhase],
           K % PerPhase + 1, Normal[K], Dl[K]);

  // The headline observations of the figure.
  auto PhaseAvgTail = [&](const std::vector<double> &T, int Phase) {
    // average of the last iterations of a phase (steady state)
    double S = 0;
    int From = Phase * PerPhase + PerPhase / 2, Cnt = 0;
    for (int K = From; K < (Phase + 1) * PerPhase; ++K, ++Cnt)
      S += T[K];
    return S / Cnt;
  };
  printf("\n# steady-state seconds per phase\n");
  printf("%-10s %12s %12s %8s\n", "phase", "normal", "deoptless", "speedup");
  for (int P = 0; P < 4; ++P) {
    double Tn = PhaseAvgTail(Normal, P), Td = PhaseAvgTail(Dl, P);
    printf("%-10s %12.6f %12.6f %7.2fx\n", PhaseNames[P], Tn, Td, Tn / Td);
    R.headline(std::string("speedup_") + PhaseNames[P], Tn / Td);
  }
  printf("\n# events: normal deopts=%llu recompiles=%llu | deoptless "
         "deopts=%llu continuations=%llu dispatch-hits=%llu\n",
         static_cast<unsigned long long>(NormalStats.Deopts),
         static_cast<unsigned long long>(NormalStats.Compilations),
         static_cast<unsigned long long>(DlStats.Deopts),
         static_cast<unsigned long long>(DlStats.DeoptlessCompiles),
         static_cast<unsigned long long>(DlStats.DeoptlessHits));
  emitBenchArtifacts(R, Argc, Argv);
  return 0;
}
