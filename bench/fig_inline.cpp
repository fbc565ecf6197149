//===-- bench/fig_inline.cpp - Speculative inlining ablation ---------------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Measures feedback-driven speculative inlining on a call-heavy kernel: a
// dot product whose per-element combination lives in a tiny leaf function,
// so without inlining every loop iteration pays a full VM dispatch (context
// computation, version-table scan, argument boxing). With inlining the leaf
// is spliced into the caller under its callee-identity guard, the combined
// body is typed and unboxed end to end, and the only per-iteration cost is
// the arithmetic itself. Runs the ablation under both Normal and Deoptless
// so the frame-chain metadata's cost (guards carry synthesized caller
// frames) is visible in both deopt regimes.
//
// Usage: fig_inline [--n <vector-length>] [--iters K]
//
//===----------------------------------------------------------------------===//

#include "suite/harness.h"
#include "support/stats.h"
#include "support/timer.h"

#include <cstdio>

using namespace rjit;
using namespace rjit::suite;

namespace {

const char *Setup = R"(
step <- function(x, y) x * y + 0.5
dot <- function(v, w, n) {
  t <- 0
  for (i in 1:n) t <- t + step(v[[i]], w[[i]])
  t
}
)";

std::vector<double> runMode(TierStrategy S, bool Inlining, long N, int Iters,
                            RunStats &Out) {
  Vm::Config Cfg = benchConfig(S);
  Cfg.Inlining = Inlining;
  Vm V(Cfg);
  V.eval(Setup);
  V.eval("xa <- as.numeric(1:" + std::to_string(N) + ")");
  V.eval("xb <- as.numeric(" + std::to_string(N) + ":1)");
  std::string Call = "r <- dot(xa, xb, " + std::to_string(N) + "L)";

  std::vector<double> Times;
  Times.reserve(Iters);
  for (int K = 0; K < Iters; ++K) {
    Timer T;
    V.eval(Call);
    Times.push_back(T.elapsedSeconds());
  }
  Out = runStats();
  return Times;
}

double steady(const std::vector<double> &Xs) {
  std::vector<double> Tail(Xs.begin() + Xs.size() / 3, Xs.end());
  return geomean(Tail);
}

} // namespace

int main(int Argc, char **Argv) {
  benchObsInit(Argc, Argv);
  long N = argLong(Argc, Argv, "--n", 4000);
  int Iters = static_cast<int>(argLong(Argc, Argv, "--iters", 30));

  BenchReport R;
  R.Name = "fig_inline";
  R.Config = "n=" + std::to_string(N) + " iters=" + std::to_string(Iters);

  struct Mode {
    const char *Label;
    TierStrategy S;
    bool Inline;
    RunStats Stats;
    std::vector<double> Times;
  } Modes[] = {
      {"normal", TierStrategy::Normal, false, {}, {}},
      {"normal+inline", TierStrategy::Normal, true, {}, {}},
      {"deoptless", TierStrategy::Deoptless, false, {}, {}},
      {"deoptless+inline", TierStrategy::Deoptless, true, {}, {}},
  };
  for (Mode &M : Modes) {
    M.Times = runMode(M.S, M.Inline, N, Iters, M.Stats);
    R.add(M.Label, M.Times, M.Stats);
  }

  printf("# speculative inlining on a call-heavy kernel "
         "(n=%ld, %d iterations, one leaf call per element)\n",
         N, Iters);
  printf("%-6s %14s %14s %14s %14s\n", "iter", "normal[s]", "norm+inl[s]",
         "deoptless[s]", "deopl+inl[s]");
  for (int K = 0; K < Iters; ++K)
    printf("%-6d %14.6f %14.6f %14.6f %14.6f\n", K + 1, Modes[0].Times[K],
           Modes[1].Times[K], Modes[2].Times[K], Modes[3].Times[K]);

  printf("\n# steady-state geomean speedup from inlining: "
         "normal %.2fx, deoptless %.2fx\n",
         steady(Modes[0].Times) / steady(Modes[1].Times),
         steady(Modes[2].Times) / steady(Modes[3].Times));

  for (Mode &M : Modes)
    printStats(M.Label, M.Stats);
  R.headline("speedup_inline_normal",
             steady(Modes[0].Times) / steady(Modes[1].Times));
  R.headline("speedup_inline_deoptless",
             steady(Modes[2].Times) / steady(Modes[3].Times));
  emitBenchArtifacts(R, Argc, Argv);
  return 0;
}
