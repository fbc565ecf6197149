//===-- bench/fig06_misspeculation.cpp - Fig. 6: random invalidation -------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Reproduces Fig. 6 (§5.1): run the Ř main benchmark suite with randomly
// invalidated assumptions and measure the speedup of deoptless over normal
// deoptimization, per in-process iteration. The default rate is 1 in 2000
// guard checks, denser than the paper's 1 in 10k: the programs here are
// scaled down to run in milliseconds, and at 1 in 10k most of them would
// see no failure at all. Also reproduces the §5.1 memory experiment
// (--memory): change in the live-heap high-water mark (our stand-in for
// max RSS).
//
// Every evaluation, warmup and timed, is checked against the program's
// BaselineOnly result; any mismatch is reported and the exit code is 1.
// Executions alternate the arms' order (suite::runArms).
//
// Besides the geomean over all programs, speedup_geomean_deopting takes
// the geomean over only the programs where Normal deopted at least once:
// at this rate about half the programs see no deopt at all and
// contribute ~1x noise. Per program, cow/hit is each arm's copy-on-write
// vector copies (timed iterations of every execution) per deoptless hit
// of the deoptless arm: a continuation that copies its vectors on every
// iteration shows up there without a profiler.
//
// Usage: fig06_misspeculation [--iters N] [--execs M] [--rate R]
//                             [--warmup W] [--memory]
//
//===----------------------------------------------------------------------===//

#include "suite/harness.h"

#include <cstdio>

using namespace rjit;
using namespace rjit::suite;

int main(int Argc, char **Argv) {
  benchObsInit(Argc, Argv);
  int Iters = static_cast<int>(argLong(Argc, Argv, "--iters", 10));
  int Execs = static_cast<int>(argLong(Argc, Argv, "--execs", 2));
  int Warmup = static_cast<int>(argLong(Argc, Argv, "--warmup", 3));
  uint64_t Rate =
      static_cast<uint64_t>(argLong(Argc, Argv, "--rate", 2000));
  bool Memory = argFlag(Argc, Argv, "--memory");

  printf("# Fig. 6 — deoptless speedup under random mis-speculation "
         "(1 in %llu dynamic assumption checks invalidated)\n",
         static_cast<unsigned long long>(Rate));
  printf("# %d iterations x %d executions, %d warmup iterations excluded "
         "(paper: 30 x 3, 5 warmup)\n",
         Iters, Execs, Warmup);
  if (!Memory)
    printf("%-26s %9s %9s %9s %19s | per-iteration speedups\n",
           "benchmark", "speedup", "deopts", "dl-hits",
           "cow/hit normal/dl");
  else
    printf("%-26s %14s %14s %9s\n", "benchmark", "peak-normal",
           "peak-deoptless", "change");

  BenchReport R;
  R.Name = "fig06_misspeculation";
  R.Config = "iters=" + std::to_string(Iters) +
             " execs=" + std::to_string(Execs) +
             " warmup=" + std::to_string(Warmup) +
             " rate=" + std::to_string(Rate) +
             (Memory ? " memory" : "");

  std::vector<Arm> Arms = paperArms();
  for (Arm &A : Arms) {
    A.Cfg.InvalidationRate = Rate;
    A.Cfg.InvalidationSeed = 1000003;
  }
  size_t N;
  const Program *Suite = mainSuite(N);
  std::vector<double> Speedups;
  std::vector<double> DeoptingSpeedups; ///< programs where Normal deopted
  std::vector<double> MemChanges;
  for (size_t B = 0; B < N; ++B) {
    const Program &P = Suite[B];
    Session S{P.Name, P.Setup, {}};
    for (int K = 0; K < Warmup; ++K)
      S.Steps.push_back({"", P.Driver, /*Warmup=*/true});
    S.repeat(Iters, P.Driver);
    SessionRun Run = runArms(R, S, Arms, Execs);
    const ArmRun &Normal = Run[0], &Dl = Run[1];

    if (Memory) {
      double Change =
          Normal.PeakHeap ? (Dl.PeakHeap / Normal.PeakHeap - 1.0) * 100.0
                          : 0.0;
      MemChanges.push_back(Change);
      printf("%-26s %14.0f %14.0f %+8.1f%%\n", P.Name, Normal.PeakHeap,
             Dl.PeakHeap, Change);
      continue;
    }

    // Per-iteration speedups (normalized per iteration index, as in the
    // paper's small dots); the large dot is the geometric mean.
    std::vector<double> PerIter(Iters);
    for (int K = 0; K < Iters; ++K)
      PerIter[K] = Normal.Times[K] / Dl.Times[K];
    double Mean = geomean(PerIter);
    Speedups.push_back(Mean);
    if (Normal.Stats.Deopts)
      DeoptingSpeedups.push_back(Mean);
    R.headline(std::string("speedup_") + P.Name, Mean);
    uint64_t Hits = Dl.Stats.DeoptlessHits;
    char CowPerHit[32] = "-";
    if (Hits)
      snprintf(CowPerHit, sizeof(CowPerHit), "%.1f/%.1f",
               static_cast<double>(Normal.Stats.CowCopies) / Hits,
               static_cast<double>(Dl.Stats.CowCopies) / Hits);
    printf("%-26s %8.2fx %9llu %9llu %19s |", P.Name, Mean,
           static_cast<unsigned long long>(Normal.Stats.Deopts),
           static_cast<unsigned long long>(Hits), CowPerHit);
    for (int K = 0; K < Iters; ++K)
      printf(" %.2f", PerIter[K]);
    printf("\n");
  }

  if (!Memory) {
    printf("\n# overall geomean speedup: %.2fx (paper: 1x..9.1x, most "
           "benchmarks > 1.9x)\n",
           geomean(Speedups));
    printf("# geomean over the %zu programs where Normal deopted: %.2fx\n",
           DeoptingSpeedups.size(), geomean(DeoptingSpeedups));
    R.headline("speedup_geomean", geomean(Speedups));
    R.headline("speedup_geomean_deopting", geomean(DeoptingSpeedups));
  } else {
    double Sum = 0;
    for (double C : MemChanges)
      Sum += C;
    double MeanChange = MemChanges.empty() ? 0.0 : Sum / MemChanges.size();
    printf("\n# mean heap-peak change: %+.1f%% (paper: median -4%%)\n",
           MeanChange);
    R.headline("heap_change_pct_mean", MeanChange);
  }
  return emitBenchArtifacts(R, Argc, Argv);
}
