//===-- bench/fig10_colsum.cpp - Fig. 10: column-wise sum ------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Reproduces Fig. 10 (paper Listing 8): summing the columns of a table
// whose columns alternate between double and integer vectors. In the
// normal VM the first integer column after warming up on doubles triggers
// a deoptimization; the function is recompiled generically and stays slow
// for all remaining columns. With deoptless the integer case gets its own
// specialized continuation and both column types run at full speed.
//
// Usage: fig10_colsum [--rows N] [--cols C] [--execs M]
//
//===----------------------------------------------------------------------===//

#include "suite/harness.h"
#include "support/stats.h"

#include <cstdio>

using namespace rjit;
using namespace rjit::suite;

namespace {

std::vector<double> runMode(TierStrategy S, long Rows, long Cols, int Execs,
                            RunStats &Out) {
  const Program *P = byName("colsum");
  std::vector<double> Times(Cols, 0.0);
  for (int E = 0; E < Execs; ++E) {
    Vm V(benchConfig(S));
    V.eval(P->Setup);
    V.eval("t <- make_table(" + std::to_string(Cols) + "L, " +
           std::to_string(Rows) + "L)");
    VmStats Start = openWindow();
    // Iterations = individual column sums, exactly the paper's "run times
    // of f": columns alternate double (odd) and integer (even).
    for (long C = 1; C <= Cols; ++C)
      Times[C - 1] +=
          timeOnce(V, "col_f(" + std::to_string(C) + "L, t)") / Execs;
    Out = runStats(Start);
  }
  return Times;
}

} // namespace

int main(int Argc, char **Argv) {
  benchObsInit(Argc, Argv);
  long Rows = argLong(Argc, Argv, "--rows", 100000);
  long Cols = argLong(Argc, Argv, "--cols", 50);
  int Execs = static_cast<int>(argLong(Argc, Argv, "--execs", 2));

  BenchReport R;
  R.Name = "fig10_colsum";
  R.Config = "rows=" + std::to_string(Rows) + " cols=" +
             std::to_string(Cols) + " execs=" + std::to_string(Execs);

  RunStats NStats, DStats;
  std::vector<double> Normal =
      runMode(TierStrategy::Normal, Rows, Cols, Execs, NStats);
  R.add("normal", Normal, NStats);
  std::vector<double> Dl =
      runMode(TierStrategy::Deoptless, Rows, Cols, Execs, DStats);
  R.add("deoptless", Dl, DStats);

  printf("# Fig. 10 — column-wise sum, %ld columns x %ld rows, alternating "
         "double/integer columns\n",
         Cols, Rows);
  printf("# seconds per column sum (paper plots log scale)\n");
  printf("%-6s %-8s %12s %12s\n", "col", "type", "normal", "deoptless");
  for (long C = 0; C < Cols; ++C)
    printf("%-6ld %-8s %12.6f %12.6f\n", C + 1,
           (C + 1 >= 5 && (C + 1) % 2 == 1) ? "double" : "int", Normal[C], Dl[C]);

  // Stable iterations: the last half of the columns.
  double Tn = 0, Td = 0;
  long From = Cols / 2, Cnt = 0;
  for (long C = From; C < Cols; ++C, ++Cnt) {
    Tn += Normal[C];
    Td += Dl[C];
  }
  printf("\n# stable-iteration speedup (last %ld columns): %.2fx "
         "(paper: 35x on their testbed; amplitude is compressed here)\n",
         Cnt, Tn / Td);
  printf("# events: normal deopts=%llu recompiles=%llu | deoptless "
         "deopts=%llu continuations=%llu hits=%llu\n",
         static_cast<unsigned long long>(NStats.Deopts),
         static_cast<unsigned long long>(NStats.Compilations),
         static_cast<unsigned long long>(DStats.Deopts),
         static_cast<unsigned long long>(DStats.DeoptlessCompiles),
         static_cast<unsigned long long>(DStats.DeoptlessHits));
  R.headline("speedup_stable", Tn / Td);
  emitBenchArtifacts(R, Argc, Argv);
  return 0;
}
