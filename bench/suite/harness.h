//===-- bench/suite/harness.h - Benchmark harness helpers --------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared harness for the figure benches: strategy configuration, the
/// paper's measurement protocol (N in-process iterations times M
/// executions, per-iteration normalization) with interleaved arms and
/// results checked against BaselineOnly, and the BENCH_<name>.json
/// reports.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_BENCH_SUITE_HARNESS_H
#define RJIT_BENCH_SUITE_HARNESS_H

#include "obs/metrics.h"
#include "suite/programs.h"
#include "support/stats.h"
#include "vm/vm.h"

#include <string>
#include <utility>
#include <vector>

namespace rjit::suite {

/// Builds the Vm configuration for a strategy with bench-wide defaults.
Vm::Config benchConfig(TierStrategy S);

/// Geometric mean of positive values.
double geomean(const std::vector<double> &Xs);

/// Steady state of a series: the geomean of its last two thirds.
double steadyGeomean(const std::vector<double> &Xs);
/// Noise-robust steady state: the fastest of its last two thirds (on a
/// shared host, interference only ever inflates a measurement).
double steadyMin(const std::vector<double> &Xs);
/// Steady state of one phase: the mean of the last half of Xs[From, To).
double steadyMean(const std::vector<double> &Xs, size_t From, size_t To);

/// Simple argv flag lookup: `--name value`; returns Def when absent.
long argLong(int Argc, char **Argv, const std::string &Name, long Def);
bool argFlag(int Argc, char **Argv, const std::string &Name);
/// String-valued `--name value` lookup; returns Def when absent.
const char *argStr(int Argc, char **Argv, const std::string &Name,
                   const char *Def);

/// A mode's counters plus its histograms: what a bench series records.
struct RunStats : VmStats {
  obs::VmMetrics Metrics;
};

/// Prints the tiering effectiveness counters of one run: compilations,
/// context-dispatch version/hit/miss counters and the deoptless
/// continuation dispatch counters (skipping zero groups).
void printStats(const char *Label, const VmStats &S);

//===----------------------------------------------------------------------===//
// Machine-readable bench reports (BENCH_<name>.json) and shared obs flags
//===----------------------------------------------------------------------===//

/// One measured series of a bench: a mode label, its per-iteration times,
/// and the stats/metrics snapshots captured while the mode's Vm lived.
struct BenchSeries {
  std::string Label;
  std::vector<double> Times; ///< seconds per iteration, in order
  VmStats Stats;
  obs::VmMetrics Metrics;
  /// Per-Vm counters of a many-Vm series (the server bench's clients),
  /// serialized as a "clients" array next to the total in Stats.
  std::vector<VmStats> Clients;
  /// Extra named scalars serialized into the series object (an "extras"
  /// JSON block). Benches whose per-sample data is too large to inline as
  /// Times — the server bench records hundreds of thousands of request
  /// latencies into histograms — publish their pre-computed percentiles
  /// here instead.
  std::vector<std::pair<std::string, double>> Extras;
};

/// A bench's full report. Fill with add()/headline() as modes complete,
/// then hand to emitBenchArtifacts().
struct BenchReport {
  std::string Name;   ///< bench name; the default artifact is
                      ///< BENCH_<Name>.json in the working directory
  std::string Config; ///< parameter echo, e.g. "rows=1000 cols=40 iters=30"

  std::vector<BenchSeries> Series;
  std::vector<std::pair<std::string, double>> Headlines;
  /// Evaluations whose value differed from BaselineOnly (runArms).
  uint64_t WrongResults = 0;

  /// Records a completed mode with the counters and histograms its Vms
  /// recorded.
  BenchSeries &add(const std::string &Label,
                   const std::vector<double> &Times, const VmStats &Stats,
                   const obs::VmMetrics &Metrics);

  /// Records a named scalar result (speedups, ratios — the
  /// machine-independent numbers bench/compare_bench.py diffs).
  void headline(const std::string &Key, double Value);
};

//===----------------------------------------------------------------------===//
// The A/B protocol every figure runs
//===----------------------------------------------------------------------===//

/// One step of a session: an untimed preparation (may be empty), then an
/// expression whose evaluation is timed and whose value is checked.
struct Step {
  std::string Pre;
  std::string Timed;
  /// Checked but not recorded. Warmup steps lead their session: the
  /// measurement window (counters, histograms, heap peak) opens after them.
  bool Warmup = false;
  /// Waits for every requested background compile before Pre.
  bool Drain = false;
};

/// What each fresh Vm runs: an untimed setup, then the steps in order. A
/// step with a Pre starts a new phase.
struct Session {
  std::string Name; ///< series label prefix; empty for a figure's only one
  std::string Setup;
  std::vector<Step> Steps;

  /// Appends \p Times steps evaluating \p Timed, the first after \p Pre.
  Session &repeat(int Times, const std::string &Timed,
                  const std::string &Pre = "");
};

/// One configuration under test.
struct Arm {
  std::string Label;
  Vm::Config Cfg;
};

/// The paper's two arms, "normal" and "deoptless", as benchConfig() sets
/// them up.
std::vector<Arm> paperArms();

/// What one arm measured over a session's executions.
struct ArmRun {
  /// Seconds per timed step: the mean over executions, and the fastest.
  std::vector<double> Times, Fastest;
  RunStats Stats;      ///< counters and histograms, summed over executions
  double PeakHeap = 0; ///< the timed steps' heap high-water, mean
};

/// What runArms measured: one ArmRun per arm.
struct SessionRun {
  std::vector<ArmRun> Arms; ///< in table order
  /// The arm of each Vm in the order the Vms ran.
  std::vector<size_t> Order;

  const ArmRun &operator[](size_t A) const { return Arms[A]; }
};

/// Runs \p S under every arm for \p Execs executions, one fresh Vm per arm
/// and execution and one Vm alive at a time. Even executions run the arms
/// in table order, odd ones in reverse (ABBA), so host drift lands on
/// every arm alike. Execution E multiplies each arm's InvalidationSeed by
/// E + 1: arms see the same injected failures, executions different ones.
/// Each distinct step (its timed expression within its phase) is evaluated
/// once under BaselineOnly, and every evaluation, warmup included, is
/// checked against that value: a mismatch is reported on stderr and
/// counted in R.WrongResults. Adds one series per arm to \p R, labeled
/// "<session>/<arm>".
SessionRun runArms(BenchReport &R, const Session &S,
                   const std::vector<Arm> &Arms, int Execs);

/// Handles the shared obs flags once at the top of main():
/// `--trace <path>` holds a process-lifetime tracing ref (every Vm the
/// bench creates records into it) — emitBenchArtifacts() writes the
/// Chrome trace there. \p RingCapacity sizes the per-thread event rings
/// (0 keeps the tracer's default); a bench whose trace must hold every
/// event passes enough for its run. Returns true when tracing was
/// requested.
bool benchObsInit(int Argc, char **Argv, size_t RingCapacity = 0);

/// Writes BENCH_<Name>.json (path overridable with `--json <path>`) with
/// the per-series timings, exact time percentiles, nonzero stats counters
/// (per client too, for many-Vm series) and latency histograms, plus the
/// headlines; also writes the Chrome trace when benchObsInit() saw
/// `--trace`. Returns the bench's exit status: 1 when an evaluation
/// differed from BaselineOnly, else 0.
int emitBenchArtifacts(const BenchReport &R, int Argc, char **Argv);

} // namespace rjit::suite

#endif // RJIT_BENCH_SUITE_HARNESS_H
