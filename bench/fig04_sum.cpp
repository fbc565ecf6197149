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
// first because the original code was never discarded. The float and
// complex continuations peel the loop's first iteration (opt/peel), so
// `total`, which starts as 0L, stays unboxed in their loops.
//
// Usage: fig04_sum [--n <elements>] [--iters <per-phase>]
//
//===----------------------------------------------------------------------===//

#include "suite/harness.h"

#include <cstdio>

using namespace rjit;
using namespace rjit::suite;

int main(int Argc, char **Argv) {
  benchObsInit(Argc, Argv);
  long N = argLong(Argc, Argv, "--n", 200000);
  int PerPhase = static_cast<int>(argLong(Argc, Argv, "--iters", 5));

  BenchReport R;
  R.Name = "fig04_sum";
  R.Config = "n=" + std::to_string(N) +
             " iters=" + std::to_string(PerPhase);

  const char *PhaseNames[] = {"int", "float", "complex", "float2"};
  const std::string Ns = std::to_string(N);
  Session S{"", byName("sum")->Setup, {}};
  for (const std::string &Data :
       {"1:" + Ns, "as.numeric(1:" + Ns + ")", "as.complex(1:" + Ns + ")",
        "as.numeric(1:" + Ns + ")"})
    S.repeat(PerPhase, "sum_data(data)", "data <- " + Data);
  SessionRun Run = runArms(R, S, paperArms(), 2);
  const ArmRun &Normal = Run[0], &Dl = Run[1];

  printf("# Fig. 4 — sum over %ld elements; phases: int, float, complex, "
         "float (%d iterations each)\n",
         N, PerPhase);
  printf("# seconds per iteration (the paper plots this on a log scale)\n");
  printf("%-10s %-10s %12s %12s\n", "phase", "iteration", "normal",
         "deoptless");
  for (size_t K = 0; K < Normal.Times.size(); ++K)
    printf("%-10s %-10zu %12.6f %12.6f\n", PhaseNames[K / PerPhase],
           K % PerPhase + 1, Normal.Times[K], Dl.Times[K]);

  // The headline observations of the figure.
  printf("\n# steady-state seconds per phase\n");
  printf("%-10s %12s %12s %8s\n", "phase", "normal", "deoptless", "speedup");
  for (size_t P = 0; P < 4; ++P) {
    double Tn = steadyMean(Normal.Times, P * PerPhase, (P + 1) * PerPhase);
    double Td = steadyMean(Dl.Times, P * PerPhase, (P + 1) * PerPhase);
    printf("%-10s %12.6f %12.6f %7.2fx\n", PhaseNames[P], Tn, Td, Tn / Td);
    R.headline(std::string("speedup_") + PhaseNames[P], Tn / Td);
  }
  printf("\n# events: normal deopts=%llu recompiles=%llu peeled-loops=%llu "
         "| deoptless deopts=%llu continuations=%llu dispatch-hits=%llu "
         "peeled-loops=%llu\n",
         static_cast<unsigned long long>(Normal.Stats.Deopts),
         static_cast<unsigned long long>(Normal.Stats.Compilations),
         static_cast<unsigned long long>(Normal.Stats.PeeledLoops),
         static_cast<unsigned long long>(Dl.Stats.Deopts),
         static_cast<unsigned long long>(Dl.Stats.DeoptlessCompiles),
         static_cast<unsigned long long>(Dl.Stats.DeoptlessHits),
         static_cast<unsigned long long>(Dl.Stats.PeeledLoops));
  return emitBenchArtifacts(R, Argc, Argv);
}
