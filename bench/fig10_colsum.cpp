//===-- bench/fig10_colsum.cpp - Fig. 10: column-wise sum ------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Reproduces Fig. 10 (paper Listing 8): summing the columns of a table
// whose first four columns are integer vectors and whose later columns
// alternate, the odd ones from column 5 on being double vectors
// (make_table). In the normal VM the first double column, after warming
// up on integers, triggers a deoptimization; the function is recompiled
// generically and stays slow for all remaining columns. With deoptless
// the double case gets its own specialized continuation and both column
// types run at full speed.
//
// Usage: fig10_colsum [--rows N] [--cols C] [--execs M]
//
//===----------------------------------------------------------------------===//

#include "suite/harness.h"

#include <cstdio>

using namespace rjit;
using namespace rjit::suite;

int main(int Argc, char **Argv) {
  benchObsInit(Argc, Argv);
  long Rows = argLong(Argc, Argv, "--rows", 100000);
  long Cols = argLong(Argc, Argv, "--cols", 50);
  int Execs = static_cast<int>(argLong(Argc, Argv, "--execs", 2));

  BenchReport R;
  R.Name = "fig10_colsum";
  R.Config = "rows=" + std::to_string(Rows) + " cols=" +
             std::to_string(Cols) + " execs=" + std::to_string(Execs);

  // Iterations = individual column sums, exactly the paper's "run times
  // of f".
  Session S{"",
            std::string(byName("colsum")->Setup) + "\nt <- make_table(" +
                std::to_string(Cols) + "L, " + std::to_string(Rows) + "L)",
            {}};
  for (long C = 1; C <= Cols; ++C)
    S.repeat(1, "col_f(" + std::to_string(C) + "L, t)");
  SessionRun Run = runArms(R, S, paperArms(), Execs);
  const ArmRun &Normal = Run[0], &Dl = Run[1];

  printf("# Fig. 10 — column-wise sum, %ld columns x %ld rows, integer "
         "columns 1-4, then alternating double/integer columns\n",
         Cols, Rows);
  printf("# seconds per column sum (paper plots log scale)\n");
  printf("%-6s %-8s %12s %12s\n", "col", "type", "normal", "deoptless");
  for (long C = 1; C <= Cols; ++C)
    printf("%-6ld %-8s %12.6f %12.6f\n", C,
           C >= 5 && C % 2 == 1 ? "double" : "int", Normal.Times[C - 1],
           Dl.Times[C - 1]);

  // Stable iterations: the last half of the columns.
  double Speedup = steadyMean(Normal.Times, 0, Cols) /
                   steadyMean(Dl.Times, 0, Cols);
  printf("\n# stable-iteration speedup (last %ld columns): %.2fx "
         "(paper: 35x on their testbed; amplitude is compressed here)\n",
         Cols - Cols / 2, Speedup);
  printf("# events: normal deopts=%llu recompiles=%llu | deoptless "
         "deopts=%llu continuations=%llu hits=%llu\n",
         static_cast<unsigned long long>(Normal.Stats.Deopts),
         static_cast<unsigned long long>(Normal.Stats.Compilations),
         static_cast<unsigned long long>(Dl.Stats.Deopts),
         static_cast<unsigned long long>(Dl.Stats.DeoptlessCompiles),
         static_cast<unsigned long long>(Dl.Stats.DeoptlessHits));
  R.headline("speedup_stable", Speedup);
  return emitBenchArtifacts(R, Argc, Argv);
}
