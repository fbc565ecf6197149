//===-- bench/fig_native.cpp - Native tier vs threaded interpreter ---------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Two kernels, two claims:
//
//  * colsum, three modes: the hoisted-clean loop kernel of fig_licm,
//    widened to two independent accumulator chains — contextual inlining
//    devirtualized the accessor, LICM hoisted the invariant arithmetic,
//    the loop layer hoisted the identity guard — so what remains in the
//    inner loop is pure execution overhead, and the second chain keeps
//    the comparison throughput-bound (the template tier's per-op slot
//    round-trips saturate the load ports) rather than add-latency-bound.
//    interp vs v2 measures the whole native tier (headline:
//    speedup_native); template-only vs v2 isolates exactly the v2 layer —
//    register homes (and vector pins) instead of per-op slot-array
//    round-trips — on identical LowCode (headline: speedup_native_v2,
//    gated at >= --v2bound, default 2.0x).
//
//  * axpy (template-only vs v2, untimed headline-wise): a register-
//    pressure arithmetic chain filling the XMM home pool; reported as
//    series data and the NativeRegSpills sanity signal.
//
// The exit code asserts all acceptance bounds: >= --bound (default 2.0x)
// native-over-interp on colsum, >= --v2bound (default 2.0x) v2-over-
// template on colsum, NativeEnters/NativeCompiles > 0, and every result
// equal to BaselineOnly's.
// On hosts without the native backend the bench prints a skip marker and
// exits 0 — the binary must build and run everywhere.
//
// Usage: fig_native [--rows N] [--cols C] [--iters K] [--bound B(x100)]
//                   [--v2bound B(x100)]
//
//===----------------------------------------------------------------------===//

#include "native/native.h"
#include "suite/harness.h"

#include <cstdio>

using namespace rjit;
using namespace rjit::suite;

namespace {

const char *ColsumSetup = R"(
get <- function(v, k) v[[k]]
colsum <- function(m, w, nr, nc, f) {
  s <- 0
  q <- 0
  for (j in 1:nc) {
    for (i in 1:nr) {
      x <- f(m, (j - 1L) * nr + i)
      y <- w[[i]]
      s <- s + x * y
      q <- q + x - y
    }
  }
  s + q
}
)";

const char *AxpySetup = R"(
axpy <- function(v, n, a) {
  s <- 0
  t <- 1
  u <- 0
  w <- 1
  for (i in 1:n) {
    x <- v[[i]] * a
    y <- x + 0.5
    z <- y * 0.25 + x
    s <- s + y
    t <- t + z * 0.5
    u <- u + (x - z) * 0.125
    w <- w + (y + z) * 0.0625
  }
  (s + t) + (u + w)
}
)";

Vm::Config modeConfig(bool Native, bool V2) {
  Vm::Config Cfg = benchConfig(TierStrategy::Normal);
  Cfg.Inlining = true;
  Cfg.LoopOpts = true;
  Cfg.NativeTier = Native;
  Cfg.NativeV2.Regalloc = V2;
  return Cfg;
}

void printSeries(const char *Title, const char *A, const char *B,
                 const std::vector<double> &Ta,
                 const std::vector<double> &Tb) {
  printf("%s\n", Title);
  printf("%-6s %14s %14s\n", "iter", A, B);
  for (size_t K = 0; K < Ta.size(); ++K)
    printf("%-6zu %14.6f %14.6f\n", K + 1, Ta[K], Tb[K]);
}

/// Steady-state speedup of \p B over \p A: the best tail iteration of
/// any execution (the tail skip drops warmup and compilation; the minimum
/// is the noise-robust statistic on a shared host).
double speedup(const ArmRun &A, const ArmRun &B) {
  return steadyMin(A.Fastest) / steadyMin(B.Fastest);
}

} // namespace

int main(int Argc, char **Argv) {
  // A 2^20-event ring holds the whole traced run (the default 2^16 fills
  // with native-enter events long before the side exits and deopts the
  // trace exists to show).
  bool Tracing = benchObsInit(Argc, Argv, 1u << 20);
  long Rows = argLong(Argc, Argv, "--rows", 1000);
  long Cols = argLong(Argc, Argv, "--cols", 40);
  int Iters = static_cast<int>(argLong(Argc, Argv, "--iters", 30));
  double Bound = argLong(Argc, Argv, "--bound", 200) / 100.0;
  double V2Bound = argLong(Argc, Argv, "--v2bound", 200) / 100.0;

  if (!nativeBackendSupported()) {
    printf("# fig_native: native backend unsupported on this host "
           "(non-x86-64 or no RX mappings); skipping\n");
    return 0;
  }

  long N = Rows * Cols;
  BenchReport R;
  R.Name = "fig_native";
  R.Config = "rows=" + std::to_string(Rows) + " cols=" +
             std::to_string(Cols) + " iters=" + std::to_string(Iters);
  const Arm Template{"template", modeConfig(true, false)};
  const Arm V2{"v2", modeConfig(true, true)};
  const std::string Data = "\nd <- as.numeric(1:" + std::to_string(N) +
                           ")\nwv <- as.numeric(1:" + std::to_string(Rows) +
                           ")";

  // --- colsum: interpreter vs template-only native vs v2 native ---------
  Session Colsum{"", ColsumSetup + Data, {}};
  Colsum.repeat(Iters, "r <- colsum(d, wv, " + std::to_string(Rows) + "L, " +
                           std::to_string(Cols) + "L, get)");
  SessionRun Col = runArms(
      R, Colsum,
      {{"interp", modeConfig(false, false)}, Template,
       {"native_v2", V2.Cfg}},
      2);

  // --- axpy: register-pressure chain, template vs v2 (series only) ------
  Session Axpy{"axpy", AxpySetup + Data, {}};
  Axpy.repeat(Iters, "r <- axpy(d, " + std::to_string(N) + "L, 1.0000001)");
  SessionRun Ax = runArms(R, Axpy, {Template, V2}, 2);

  printSeries("# colsum: native v2 vs threaded interpreter on the "
              "hoisted-clean kernel",
              "interp[s]", "v2[s]", Col[0].Times, Col[2].Times);
  double Speed = speedup(Col[0], Col[2]);
  printf("\n# steady-state (best-tail) speedup of the native backend: "
         "%.2fx\n\n",
         Speed);

  printSeries("# colsum: v2 (regalloc) vs template-only native tier, "
              "identical LowCode",
              "template[s]", "v2[s]", Col[1].Times, Col[2].Times);
  double SpeedV2 = speedup(Col[1], Col[2]);
  printf("\n# steady-state (best-tail) speedup of v2 over the template "
         "tier: %.2fx\n\n",
         SpeedV2);

  printSeries("# axpy: register-pressure chain, template vs v2",
              "template[s]", "v2[s]", Ax[0].Times, Ax[1].Times);
  printf("\n# axpy v2-over-template (series only, not gated): %.2fx\n\n",
         speedup(Ax[0], Ax[1]));

  const RunStats &Native = Col[2].Stats;
  printf("# native events: compiles %llu, enters %llu; v2 reg spills "
         "%llu\n",
         static_cast<unsigned long long>(Native.NativeCompiles +
                                         Ax[1].Stats.NativeCompiles),
         static_cast<unsigned long long>(Native.NativeEnters +
                                         Ax[1].Stats.NativeEnters),
         static_cast<unsigned long long>(Ax[1].Stats.NativeRegSpills));

  // Checked probe for the trace export: a short native run with injected
  // invalidation exercises the side-exit stubs and the deopt path, so the
  // Chrome trace demonstrates the full compile / native-enter /
  // native-side-exit / deopt event vocabulary. Runs after every measured
  // arm, in a Vm of its own, so it cannot perturb the timings.
  if (Tracing) {
    Arm Probe = V2;
    Probe.Cfg.InvalidationRate = 5000;
    Probe.Cfg.InvalidationSeed = 42;
    Session S{"invalidated", ColsumSetup + Data, {}};
    S.repeat(8, Colsum.Steps[0].Timed);
    runArms(R, S, {Probe}, 1);
  }

  R.headline("speedup_native", Speed);
  R.headline("speedup_native_v2", SpeedV2);
  int Status = emitBenchArtifacts(R, Argc, Argv);

  bool Fast = Speed >= Bound && SpeedV2 >= V2Bound &&
              Native.NativeEnters > 0 && Native.NativeCompiles > 0;
  if (!Fast)
    printf("# FAIL: expected >= %.2fx native speedup (got %.2fx) and >= "
           "%.2fx v2-over-template speedup (got %.2fx) with NativeEnters "
           "> 0\n",
           Bound, Speed, V2Bound, SpeedV2);
  return Fast ? Status : 1;
}
