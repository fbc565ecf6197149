//===-- bench/fig_licm.cpp - Loop optimization layer ablation --------------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Measures the loop optimization layer on a colsum-style kernel written
// the natural way: the element accessor is a function parameter (so every
// inner iteration pays a callee-identity guard once the call is inlined)
// and the column base index is recomputed per element. Contextual
// dispatch and inlining already devirtualized and unboxed the loop — the
// remaining per-iteration overhead is exactly what speculation has
// already proven stable: the identity guard on the invariant accessor and
// the (j-1)*nr base-index arithmetic. LICM hoists the arithmetic (and the
// inner `1:nr` sequence allocation out of the outer loop); guard hoisting
// moves the identity check into the preheader, re-anchored to the
// pre-loop frame state.
//
// The exit code asserts the acceptance bound: >= --bound steady-state
// speedup from LoopOpts with HoistedGuards > 0 and HoistedInstrs > 0, and
// the deterministic form of the same claim — the LoopOpts run executes at
// most a third of the guard checks the run without it executes, because
// the identity guard no longer runs per element. A passing guard costs
// only its test (deopt metadata boxes nothing eagerly), so the timed
// speedup is modest: 1.09-1.98x, median 1.50x, over 16 runs with CI's
// parameters on a 4-core x86-64 host; the 1.15x default sits below all
// but the lowest of them.
//
// The tracing-overhead bound compares the fastest steady iteration of
// the traced and the untraced arm. That floor differs by up to ~30% from
// one Vm to the next under one configuration (0.65-0.87 ms per iteration
// over 40 sequential Vms in one process, CI's parameters, same host), so
// the probe runs 32 executions of its two arms: with 2, the ratio
// exceeded 1.02 in most runs; with 16, in 3 of 11; with 32, in none of
// 22 (0.957-1.016).
//
// Usage: fig_licm [--rows N] [--cols C] [--iters K] [--bound B(x100)]
//
//===----------------------------------------------------------------------===//

#include "suite/harness.h"

#include <cstdio>

using namespace rjit;
using namespace rjit::suite;

namespace {

const char *Setup = R"(
get <- function(v, k) v[[k]]
colsum <- function(m, nr, nc, f) {
  s <- 0
  for (j in 1:nc)
    for (i in 1:nr)
      s <- s + f(m, (j - 1L) * nr + i)
  s
}
)";

} // namespace

int main(int Argc, char **Argv) {
  benchObsInit(Argc, Argv);
  long Rows = argLong(Argc, Argv, "--rows", 1000);
  long Cols = argLong(Argc, Argv, "--cols", 40);
  int Iters = static_cast<int>(argLong(Argc, Argv, "--iters", 30));
  double Bound = argLong(Argc, Argv, "--bound", 115) / 100.0;
  double TraceBound = argLong(Argc, Argv, "--trace-bound", 102) / 100.0;

  BenchReport R;
  R.Name = "fig_licm";
  R.Config = "rows=" + std::to_string(Rows) + " cols=" +
             std::to_string(Cols) + " iters=" + std::to_string(Iters);

  Session S{"",
            std::string(Setup) + "\nd <- as.numeric(1:" +
                std::to_string(Rows * Cols) + ")",
            {}};
  S.repeat(Iters, "r <- colsum(d, " + std::to_string(Rows) + "L, " +
                      std::to_string(Cols) + "L, get)");
  auto arm = [](const char *Label, TierStrategy S, bool LoopOpts,
                bool Trace) {
    Arm A{Label, benchConfig(S)};
    A.Cfg.Inlining = true;
    A.Cfg.LoopOpts = LoopOpts;
    A.Cfg.Trace.Enabled = Trace;
    return A;
  };
  SessionRun Run = runArms(
      R, S,
      {arm("normal", TierStrategy::Normal, false, false),
       arm("normal+loopopts", TierStrategy::Normal, true, false),
       arm("deoptless", TierStrategy::Deoptless, false, false),
       arm("deoptless+loopopts", TierStrategy::Deoptless, true, false)},
      2);
  // The acceptance criterion's overhead probe: normal+loopopts with and
  // without the event tracer enabled.
  Session Probe = S;
  Probe.Name = "trace";
  SessionRun Trace = runArms(
      R, Probe,
      {arm("normal+loopopts", TierStrategy::Normal, true, false),
       arm("normal+loopopts+trace", TierStrategy::Normal, true, true)},
      32);

  printf("# loop optimization layer on a colsum-style invariant-guard "
         "kernel (%ldx%ld, %d iterations, inlining on)\n",
         Rows, Cols, Iters);
  printf("%-6s %14s %14s %14s %14s\n", "iter", "normal[s]", "norm+loop[s]",
         "deoptless[s]", "deopl+loop[s]");
  for (int K = 0; K < Iters; ++K)
    printf("%-6d %14.6f %14.6f %14.6f %14.6f\n", K + 1, Run[0].Times[K],
           Run[1].Times[K], Run[2].Times[K], Run[3].Times[K]);

  double SpeedN = steadyGeomean(Run[0].Times) / steadyGeomean(Run[1].Times);
  double SpeedD = steadyGeomean(Run[2].Times) / steadyGeomean(Run[3].Times);
  const RunStats &Loop = Run[1].Stats;
  printf("\n# steady-state geomean speedup from the loop layer: "
         "normal %.2fx, deoptless %.2fx\n",
         SpeedN, SpeedD);
  printf("# loop-layer events (normal+loopopts): hoisted guards=%llu "
         "hoisted instrs=%llu eliminated guards=%llu\n",
         static_cast<unsigned long long>(Loop.HoistedGuards),
         static_cast<unsigned long long>(Loop.HoistedInstrs),
         static_cast<unsigned long long>(Loop.EliminatedGuards));

  // A constant per-event tracing cost shows in the fastest steady
  // iteration of any execution just the same, where the mean is dominated
  // by scheduler noise at millisecond iteration times.
  double TraceRatio =
      steadyMin(Trace[1].Fastest) / steadyMin(Trace[0].Fastest);
  printf("# tracing overhead: traced/untraced fastest-steady-iteration "
         "ratio %.4f (bound %.2f)\n",
         TraceRatio, TraceBound);

  R.headline("speedup_loop_normal", SpeedN);
  R.headline("speedup_loop_deoptless", SpeedD);
  R.headline("trace_overhead_ratio", TraceRatio);
  int Status = emitBenchArtifacts(R, Argc, Argv);

  bool Ok = SpeedN >= Bound && Loop.HoistedGuards > 0 &&
            Loop.HoistedInstrs > 0;
  if (!Ok)
    printf("# FAIL: expected >= %.2fx steady-state speedup with hoisted "
           "guards and instructions\n",
           Bound);
  uint64_t ChecksOff = Run[0].Stats.AssumeChecks;
  uint64_t ChecksOn = Loop.AssumeChecks;
  printf("# guard checks: normal %llu, normal+loopopts %llu\n",
         static_cast<unsigned long long>(ChecksOff),
         static_cast<unsigned long long>(ChecksOn));
  if (3 * ChecksOn > ChecksOff) {
    printf("# FAIL: LoopOpts must cut guard checks to at most a third\n");
    Ok = false;
  }
  if (TraceRatio > TraceBound) {
    printf("# FAIL: tracing overhead ratio %.4f exceeds bound %.2f\n",
           TraceRatio, TraceBound);
    Ok = false;
  }
  return Ok ? Status : 1;
}
