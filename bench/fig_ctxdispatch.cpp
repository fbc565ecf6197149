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
#include "support/stats.h"
#include "support/timer.h"

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

std::vector<double> runMode(bool ContextDispatch, long N, int Iters,
                            RunStats &Out) {
  Vm::Config Cfg = benchConfig(TierStrategy::Normal);
  Cfg.ContextDispatch = ContextDispatch;
  Vm V(Cfg);
  V.eval(Setup);
  V.eval("xi <- 1:" + std::to_string(N));
  V.eval("xr <- as.numeric(1:" + std::to_string(N) + ")");
  std::string NL = std::to_string(N) + "L";

  std::vector<double> Times;
  Times.reserve(Iters);
  for (int K = 0; K < Iters; ++K) {
    Timer T;
    // Interleaved polymorphic call sites: int x int, real x real, and a
    // mixed int x real pair; a scalar call exercises the scalar<=vector
    // rule of the context order.
    V.eval("ri <- poly_dot(xi, xi, " + NL + ")");
    V.eval("rr <- poly_dot(xr, xr, " + NL + ")");
    V.eval("rm <- poly_dot(xi, xr, " + NL + ")");
    V.eval("rs <- poly_dot(2L, 3L, 1L)");
    Times.push_back(T.elapsedSeconds());
  }
  Out = runStats();
  return Times;
}

} // namespace

int main(int Argc, char **Argv) {
  benchObsInit(Argc, Argv);
  long N = argLong(Argc, Argv, "--n", 4000);
  int Iters = static_cast<int>(argLong(Argc, Argv, "--iters", 30));

  BenchReport R;
  R.Name = "fig_ctxdispatch";
  R.Config = "n=" + std::to_string(N) + " iters=" + std::to_string(Iters);

  RunStats Single, Ctx;
  std::vector<double> TSingle = runMode(false, N, Iters, Single);
  R.add("single-version", TSingle, Single);
  std::vector<double> TCtx = runMode(true, N, Iters, Ctx);
  R.add("ctx-dispatch", TCtx, Ctx);

  printf("# contextual dispatch on a polymorphic kernel "
         "(n=%ld, %d iterations, 4 call shapes per iteration)\n",
         N, Iters);
  printf("%-6s %14s %14s %10s\n", "iter", "single[s]", "ctx[s]", "speedup");
  for (int K = 0; K < Iters; ++K)
    printf("%-6d %14.6f %14.6f %9.2fx\n", K + 1, TSingle[K], TCtx[K],
           TSingle[K] / TCtx[K]);

  // Skip the first iterations (warmup/compile) for the steady-state mean.
  std::vector<double> SS(TSingle.begin() + Iters / 3, TSingle.end());
  std::vector<double> SC(TCtx.begin() + Iters / 3, TCtx.end());
  printf("\n# steady-state geomean speedup: %.2fx\n",
         geomean(SS) / geomean(SC));

  printStats("single-version", Single);
  printStats("ctx-dispatch", Ctx);
  R.headline("speedup_ctx", geomean(SS) / geomean(SC));
  emitBenchArtifacts(R, Argc, Argv);
  return 0;
}
