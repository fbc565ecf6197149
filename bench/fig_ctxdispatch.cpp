//===-- bench/fig_ctxdispatch.cpp - Contextual dispatch ablation -----------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Measures call-entry contextual dispatch on a polymorphic workload: one
// numeric kernel invoked with integer-vector, real-vector and scalar
// arguments from interleaved call sites (the volcano-app shape of Fig. 8,
// reduced to its essence). With a single optimized version (the seed's
// Normal strategy) the kernel's profile is polymorphic from the start, so
// the optimizer can only emit generic boxed operations. With contextual
// dispatch each observed CallContext gets its own version whose parameter
// types seed inference directly, so every caller runs typed, unboxed code.
//
// Usage: fig_ctxdispatch [--n <vector-length>] [--iters K]
//
//===----------------------------------------------------------------------===//

#include "suite/harness.h"

#include <cstdio>

using namespace rjit;
using namespace rjit::suite;

namespace {

const char *Setup = R"(
poly_dot <- function(a, b, n) {
  total <- 0L
  for (i in 1:n) total <- total + a[[i]] * b[[i]]
  total
}
)";

} // namespace

int main(int Argc, char **Argv) {
  benchObsInit(Argc, Argv);
  long N = argLong(Argc, Argv, "--n", 4000);
  int Iters = static_cast<int>(argLong(Argc, Argv, "--iters", 30));

  BenchReport R;
  R.Name = "fig_ctxdispatch";
  R.Config = "n=" + std::to_string(N) + " iters=" + std::to_string(Iters);

  // Interleaved polymorphic call sites: int x int, real x real, and a
  // mixed int x real pair; a scalar call exercises the scalar<=vector rule
  // of the context order.
  const std::string Ns = std::to_string(N), NL = Ns + "L";
  Session S{"",
            std::string(Setup) + "\nxi <- 1:" + Ns +
                "\nxr <- as.numeric(1:" + Ns + ")",
            {}};
  S.repeat(Iters, "ri <- poly_dot(xi, xi, " + NL + ")\n" +
                      "rr <- poly_dot(xr, xr, " + NL + ")\n" +
                      "rm <- poly_dot(xi, xr, " + NL + ")\n" +
                      "rs <- poly_dot(2L, 3L, 1L)\nc(ri, rr, rm, rs)");
  Vm::Config Ctx = benchConfig(TierStrategy::Normal);
  Ctx.ContextDispatch = true;
  SessionRun Run = runArms(
      R, S,
      {{"single-version", benchConfig(TierStrategy::Normal)},
       {"ctx-dispatch", Ctx}},
      2);
  const std::vector<double> &TSingle = Run[0].Times, &TCtx = Run[1].Times;

  printf("# contextual dispatch on a polymorphic kernel "
         "(n=%ld, %d iterations, 4 call shapes per iteration)\n",
         N, Iters);
  printf("%-6s %14s %14s %10s\n", "iter", "single[s]", "ctx[s]", "speedup");
  for (int K = 0; K < Iters; ++K)
    printf("%-6d %14.6f %14.6f %9.2fx\n", K + 1, TSingle[K], TCtx[K],
           TSingle[K] / TCtx[K]);

  // Skip the first iterations (warmup/compile) for the steady-state mean.
  double Speedup = steadyGeomean(TSingle) / steadyGeomean(TCtx);
  printf("\n# steady-state geomean speedup: %.2fx\n", Speedup);
  printStats("single-version", Run[0].Stats);
  printStats("ctx-dispatch", Run[1].Stats);
  R.headline("speedup_ctx", Speedup);
  return emitBenchArtifacts(R, Argc, Argv);
}
