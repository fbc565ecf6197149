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
// Usage: fig08_volcano [--n <heightmap-size>] [--interactions K]
//
//===----------------------------------------------------------------------===//

#include "suite/harness.h"
#include "support/stats.h"

#include <cstdio>

using namespace rjit;
using namespace rjit::suite;

namespace {

struct Interaction {
  std::string PreEval; ///< user action (e.g. switching the interpolation)
  double SunX, SunY;
};

std::vector<Interaction> session(int K) {
  std::vector<Interaction> S;
  for (int I = 0; I < K; ++I) {
    Interaction A;
    A.SunX = 0.3 + 0.02 * (I % 7);
    A.SunY = 0.5 - 0.015 * (I % 5);
    // The user flips the interpolation selector a third and two thirds
    // into the session (the deopt-triggering events of the paper).
    if (I == K / 3)
      A.PreEval = "interp <- interp_nearest";
    else if (I == 2 * K / 3)
      A.PreEval = "interp <- interp_bilinear";
    S.push_back(A);
  }
  return S;
}

struct Times {
  std::vector<double> Cast, Render;
};

Times runMode(TierStrategy S, long N, int K, RunStats &Out) {
  const Program *P = byName("raytrace");
  Vm V(benchConfig(S));
  V.eval(P->Setup);
  V.eval("hm <- make_heightmap(" + std::to_string(N) + "L)");
  V.eval("interp <- interp_bilinear");
  VmStats Start = openWindow();
  Times T;
  for (const Interaction &A : session(K)) {
    if (!A.PreEval.empty())
      V.eval(A.PreEval);
    T.Cast.push_back(timeOnce(
        V, "cast_rays(hm, " + std::to_string(N) + "L, interp, " +
               std::to_string(A.SunX) + ", " + std::to_string(A.SunY) +
               ")"));
    T.Render.push_back(
        timeOnce(V, "render_image(hm, " + std::to_string(N) + "L)"));
  }
  Out = runStats(Start);
  return T;
}

} // namespace

int main(int Argc, char **Argv) {
  benchObsInit(Argc, Argv);
  long N = argLong(Argc, Argv, "--n", 28);
  int K = static_cast<int>(argLong(Argc, Argv, "--interactions", 40));

  BenchReport R;
  R.Name = "fig08_volcano";
  R.Config =
      "n=" + std::to_string(N) + " interactions=" + std::to_string(K);

  RunStats NormalStats, DlStats;
  Times Normal = runMode(TierStrategy::Normal, N, K, NormalStats);
  R.add("normal/cast", Normal.Cast, NormalStats);
  R.add("normal/render", Normal.Render, NormalStats);
  Times Dl = runMode(TierStrategy::Deoptless, N, K, DlStats);
  R.add("deoptless/cast", Dl.Cast, DlStats);
  R.add("deoptless/render", Dl.Render, DlStats);

  printf("# Fig. 8 — volcano app interactive session (%d interactions, "
         "%ldx%ld height map)\n",
         K, N, N);
  printf("# deoptless speedup per interaction (interpolation switches at "
         "interactions %d and %d)\n",
         K / 3 + 1, 2 * K / 3 + 1);
  printf("%-12s %12s %12s\n", "interaction", "cast_rays", "ggplot");
  for (int I = 0; I < K; ++I)
    printf("%-12d %11.2fx %11.2fx\n", I + 1,
           Normal.Cast[I] / Dl.Cast[I], Normal.Render[I] / Dl.Render[I]);

  std::vector<double> CastSp, RenderSp;
  for (int I = 0; I < K; ++I) {
    CastSp.push_back(Normal.Cast[I] / Dl.Cast[I]);
    RenderSp.push_back(Normal.Render[I] / Dl.Render[I]);
  }
  printf("\n# geomean speedups: cast_rays %.2fx, ggplot %.2fx (paper: up "
         "to 2x on interpolation switches, ~2.5x steady on rendering)\n",
         geomean(CastSp), geomean(RenderSp));
  R.headline("speedup_cast", geomean(CastSp));
  R.headline("speedup_render", geomean(RenderSp));
  emitBenchArtifacts(R, Argc, Argv);
  return 0;
}
