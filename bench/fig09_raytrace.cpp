//===-- bench/fig09_raytrace.cpp - Fig. 9: ray-tracing variants ------------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Reproduces Fig. 9: three ray-tracer experiments, each with 10 iterations
// and a phase change at iteration 5, repeated over 3 runs. The first two
// variants change the type of the height map (int vector -> double
// vector); "simplified" uses the manually inlined interpolation, "type"
// the full version. The "fun" variant changes the numerical interpolation
// function instead (a call-target deopt). Reported is deoptless' speedup
// over normal per iteration.
//
// Usage: fig09_raytrace [--n <heightmap-size>] [--runs R]
//
//===----------------------------------------------------------------------===//

#include "suite/harness.h"

#include <cstdio>

using namespace rjit;
using namespace rjit::suite;

namespace {

// The "simplified" variant: interpolation manually inlined into the
// marcher, as in the paper.
const char *SimplifiedSetup = R"(
cast_simple <- function(h, n, sunx, suny) {
  light <- 0
  for (ry in 1:(n - 2L)) {
    for (rx in 1:(n - 2L)) {
      z <- h[[(ry - 1L) * n + rx]] + 0.5
      fx <- rx + 0
      fy <- ry + 0
      lit <- TRUE
      for (step in 1:8) {
        fx <- fx + sunx
        fy <- fy + suny
        z <- z + 0.7
        if (fx < 1 || fy < 1 || fx > n - 1 || fy > n - 1) break
        ix <- floor(fx)
        iy <- floor(fy)
        if (h[[(iy - 1L) * n + ix]] > z) {
          lit <- FALSE
          break
        }
      }
      if (lit) light <- light + 1
    }
  }
  light
}
)";

struct Variant {
  const char *Name;
  std::string Setup;       ///< after the raytrace setup; iterations 1..5
  std::string SwitchPhase; ///< from iteration 6
  std::string Driver;
};

std::vector<Variant> variants(long N) {
  std::string Ns = std::to_string(N) + "L";
  return {
      {"simplified",
       SimplifiedSetup + std::string("\nhm <- make_heightmap_int(") + Ns +
           ")",
       "hm <- make_heightmap(" + Ns + ")",
       "cast_simple(hm, " + Ns + ", 0.7, 0.4)"},
      {"type", "hm <- make_heightmap_int(" + Ns + ")",
       "hm <- make_heightmap(" + Ns + ")",
       "cast_rays(hm, " + Ns + ", interp_bilinear, 0.7, 0.4)"},
      {"fun", "hm <- make_heightmap(" + Ns + ")\ninterp <- interp_bilinear",
       "interp <- interp_nearest",
       "cast_rays(hm, " + Ns + ", interp, 0.7, 0.4)"},
  };
}

} // namespace

int main(int Argc, char **Argv) {
  benchObsInit(Argc, Argv);
  long N = argLong(Argc, Argv, "--n", 28);
  int Runs = static_cast<int>(argLong(Argc, Argv, "--runs", 3));

  BenchReport Report;
  Report.Name = "fig09_raytrace";
  Report.Config = "n=" + std::to_string(N) + " runs=" + std::to_string(Runs);

  printf("# Fig. 9 — ray-tracing variants, 10 iterations, phase change at "
         "iteration 6, %d runs\n",
         Runs);
  printf("# deoptless speedup over normal, per iteration\n");
  for (const Variant &Var : variants(N)) {
    Session S{Var.Name,
              std::string(byName("raytrace")->Setup) + "\n" + Var.Setup,
              {}};
    S.repeat(5, Var.Driver).repeat(5, Var.Driver, Var.SwitchPhase);
    SessionRun Run = runArms(Report, S, paperArms(), Runs);
    std::vector<double> PerIter(10);
    printf("%-12s", Var.Name);
    for (int K = 0; K < 10; ++K) {
      PerIter[K] = Run[0].Times[K] / Run[1].Times[K];
      printf(" %5.2f", PerIter[K]);
    }
    printf("\n");
    Report.headline(std::string("speedup_") + Var.Name, geomean(PerIter));
  }
  printf("\n# (paper: deoptless consistently alleviates the slowdown at "
         "the phase change, ~1.0-1.2x)\n");
  return emitBenchArtifacts(Report, Argc, Argv);
}
