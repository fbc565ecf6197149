//===-- bench/fig_native.cpp - Native tier vs threaded interpreter ---------===//
//
// Part of the deoptless reproduction. MIT license.
//
// One kernel, one claim: colsum (suite::NativeColsumSetup) is the
// hoisted-clean loop kernel of fig_licm, widened to two independent
// accumulator chains — contextual inlining devirtualized the accessor,
// LICM hoisted the invariant arithmetic, the loop layer hoisted the
// identity guard — so what remains in the inner loop is pure execution
// overhead, and the second chain keeps the comparison throughput-bound
// rather than add-latency-bound. interp vs native measures the whole
// native tier, register homes and vector pins included (headline:
// speedup_native). native_test pins the kernel's register allocation.
//
// The exit code asserts the acceptance bounds: >= --bound (default 2.0x)
// native-over-interp on colsum, NativeEnters/NativeCompiles > 0, and every
// result equal to BaselineOnly's.
// On hosts without the native backend the bench prints a skip marker and
// exits 0 — the binary must build and run everywhere.
//
// Usage: fig_native [--rows N] [--cols C] [--iters K] [--bound B(x100)]
//
//===----------------------------------------------------------------------===//

#include "native/native.h"
#include "suite/harness.h"
#include "suite/programs.h"

#include <cstdio>

using namespace rjit;
using namespace rjit::suite;

namespace {

Vm::Config modeConfig(bool Native) {
  Vm::Config Cfg = benchConfig(TierStrategy::Normal);
  Cfg.Inlining = true;
  Cfg.LoopOpts = true;
  Cfg.NativeTier = Native;
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
  const Arm Native{"native", modeConfig(true)};
  const std::string Data = "\nd <- as.numeric(1:" + std::to_string(N) +
                           ")\nwv <- as.numeric(1:" + std::to_string(Rows) +
                           ")";

  Session Colsum{"", NativeColsumSetup + Data, {}};
  Colsum.repeat(Iters, "r <- colsum(d, wv, " + std::to_string(Rows) + "L, " +
                           std::to_string(Cols) + "L, get)");
  SessionRun Col =
      runArms(R, Colsum, {{"interp", modeConfig(false)}, Native}, 2);

  printSeries("# colsum: native tier vs threaded interpreter on the "
              "hoisted-clean kernel",
              "interp[s]", "native[s]", Col[0].Times, Col[1].Times);
  double Speed = speedup(Col[0], Col[1]);
  printf("\n# steady-state (best-tail) speedup of the native backend: "
         "%.2fx\n\n",
         Speed);

  const RunStats &NativeStats = Col[1].Stats;
  printf("# native events: compiles %llu, enters %llu; reg spills %llu\n",
         static_cast<unsigned long long>(NativeStats.NativeCompiles),
         static_cast<unsigned long long>(NativeStats.NativeEnters),
         static_cast<unsigned long long>(NativeStats.NativeRegSpills));

  // Checked probe for the trace export: a short native run with injected
  // invalidation exercises the side-exit stubs and the deopt path, so the
  // Chrome trace demonstrates the full compile / native-enter /
  // native-side-exit / deopt event vocabulary. Runs after every measured
  // arm, in a Vm of its own, so it cannot perturb the timings.
  if (Tracing) {
    Arm Probe = Native;
    Probe.Cfg.InvalidationRate = 5000;
    Probe.Cfg.InvalidationSeed = 42;
    Session S{"invalidated", NativeColsumSetup + Data, {}};
    S.repeat(8, Colsum.Steps[0].Timed);
    runArms(R, S, {Probe}, 1);
  }

  R.headline("speedup_native", Speed);
  int Status = emitBenchArtifacts(R, Argc, Argv);

  bool Fast = Speed >= Bound && NativeStats.NativeEnters > 0 &&
              NativeStats.NativeCompiles > 0;
  if (!Fast)
    printf("# FAIL: expected >= %.2fx native speedup (got %.2fx) with "
           "NativeEnters > 0\n",
           Bound, Speed);
  return Fast ? Status : 1;
}
