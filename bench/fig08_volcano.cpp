//===-- bench/fig08_volcano.cpp - Fig. 8: the volcano app session ----------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Reproduces Fig. 8: an interactive session with the volcano rendering
// app. The paper records a user clicking through the shiny GUI — changing
// the sun's position and the numerical interpolation function — and
// measures each interaction's ray-tracing (cast_rays) and rendering
// (ggplot) step. There is no GUI or ggplot here, so the session is
// scripted instead: a fixed sequence of interactions in which the
// interpolation function changes at fixed points, which is exactly what
// triggers the deoptimizations in the paper, and an R-level render_image
// stands in for the ggplot step.
//
// Each interaction is two steps, cast_rays then render_image, so each
// arm's series alternates the two.
//
// Usage: fig08_volcano [--n <heightmap-size>] [--interactions K]
//
//===----------------------------------------------------------------------===//

#include "suite/harness.h"

#include <cstdio>

using namespace rjit;
using namespace rjit::suite;

int main(int Argc, char **Argv) {
  benchObsInit(Argc, Argv);
  long N = argLong(Argc, Argv, "--n", 28);
  int K = static_cast<int>(argLong(Argc, Argv, "--interactions", 40));

  BenchReport R;
  R.Name = "fig08_volcano";
  R.Config =
      "n=" + std::to_string(N) + " interactions=" + std::to_string(K);

  const std::string Ns = std::to_string(N) + "L";
  Session S{"",
            std::string(byName("raytrace")->Setup) +
                "\nhm <- make_heightmap(" + Ns +
                ")\ninterp <- interp_bilinear",
            {}};
  for (int I = 0; I < K; ++I) {
    // The user flips the interpolation selector a third and two thirds
    // into the session (the deopt-triggering events of the paper) and
    // moves the sun on every interaction.
    std::string Pre = I == K / 3       ? "interp <- interp_nearest"
                      : I == 2 * K / 3 ? "interp <- interp_bilinear"
                                       : "";
    S.Steps.push_back({Pre, "cast_rays(hm, " + Ns + ", interp, " +
                                std::to_string(0.3 + 0.02 * (I % 7)) + ", " +
                                std::to_string(0.5 - 0.015 * (I % 5)) + ")"});
    S.Steps.push_back({"", "render_image(hm, " + Ns + ")"});
  }
  SessionRun Run = runArms(R, S, paperArms(), 2);

  printf("# Fig. 8 — volcano app interactive session (%d interactions, "
         "%ldx%ld height map)\n",
         K, N, N);
  printf("# deoptless speedup per interaction (interpolation switches at "
         "interactions %d and %d)\n",
         K / 3 + 1, 2 * K / 3 + 1);
  printf("%-12s %12s %12s\n", "interaction", "cast_rays", "ggplot");
  std::vector<double> CastSp, RenderSp;
  for (int I = 0; I < K; ++I) {
    CastSp.push_back(Run[0].Times[2 * I] / Run[1].Times[2 * I]);
    RenderSp.push_back(Run[0].Times[2 * I + 1] / Run[1].Times[2 * I + 1]);
    printf("%-12d %11.2fx %11.2fx\n", I + 1, CastSp.back(), RenderSp.back());
  }
  printf("\n# geomean speedups: cast_rays %.2fx, ggplot %.2fx (paper: up "
         "to 2x on interpolation switches, ~2.5x steady on rendering)\n",
         geomean(CastSp), geomean(RenderSp));
  R.headline("speedup_cast", geomean(CastSp));
  R.headline("speedup_render", geomean(RenderSp));
  return emitBenchArtifacts(R, Argc, Argv);
}
