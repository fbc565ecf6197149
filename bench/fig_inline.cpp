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

} // namespace

int main(int Argc, char **Argv) {
  benchObsInit(Argc, Argv);
  long N = argLong(Argc, Argv, "--n", 4000);
  int Iters = static_cast<int>(argLong(Argc, Argv, "--iters", 30));

  BenchReport R;
  R.Name = "fig_inline";
  R.Config = "n=" + std::to_string(N) + " iters=" + std::to_string(Iters);

  const std::string Ns = std::to_string(N);
  Session S{"",
            std::string(Setup) + "\nxa <- as.numeric(1:" + Ns +
                ")\nxb <- as.numeric(" + Ns + ":1)",
            {}};
  S.repeat(Iters, "r <- dot(xa, xb, " + Ns + "L)");
  auto arm = [](const char *Label, TierStrategy S, bool Inlining) {
    Arm A{Label, benchConfig(S)};
    A.Cfg.Inlining = Inlining;
    return A;
  };
  const std::vector<Arm> Arms = {
      arm("normal", TierStrategy::Normal, false),
      arm("normal+inline", TierStrategy::Normal, true),
      arm("deoptless", TierStrategy::Deoptless, false),
      arm("deoptless+inline", TierStrategy::Deoptless, true)};
  SessionRun Run = runArms(R, S, Arms, 2);

  printf("# speculative inlining on a call-heavy kernel "
         "(n=%ld, %d iterations, one leaf call per element)\n",
         N, Iters);
  printf("%-6s %14s %14s %14s %14s\n", "iter", "normal[s]", "norm+inl[s]",
         "deoptless[s]", "deopl+inl[s]");
  for (int K = 0; K < Iters; ++K)
    printf("%-6d %14.6f %14.6f %14.6f %14.6f\n", K + 1, Run[0].Times[K],
           Run[1].Times[K], Run[2].Times[K], Run[3].Times[K]);

  double SpeedN = steadyGeomean(Run[0].Times) / steadyGeomean(Run[1].Times);
  double SpeedD = steadyGeomean(Run[2].Times) / steadyGeomean(Run[3].Times);
  printf("\n# steady-state geomean speedup from inlining: "
         "normal %.2fx, deoptless %.2fx\n",
         SpeedN, SpeedD);
  for (size_t A = 0; A < Arms.size(); ++A)
    printStats(Arms[A].Label.c_str(), Run[A].Stats);
  R.headline("speedup_inline_normal", SpeedN);
  R.headline("speedup_inline_deoptless", SpeedD);
  return emitBenchArtifacts(R, Argc, Argv);
}
