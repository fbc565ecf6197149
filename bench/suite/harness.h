//===-- bench/suite/harness.h - Benchmark harness helpers --------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared harness for the figure benches: strategy configuration,
/// iteration timing, and the paper's measurement protocol (N in-process
/// iterations times M executions, per-iteration normalization).
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

/// Seconds per in-process iteration of one program under one strategy.
/// Creates a fresh Vm, evaluates Setup, then times \p Iterations runs of
/// Driver. \p Mutate (optional) runs between iterations (phase changes).
std::vector<double> runIterations(const Program &P, Vm::Config Cfg,
                                  int Iterations,
                                  const std::vector<std::string> &PerPhase =
                                      {});

/// Runs \p Source once in \p V and returns elapsed seconds.
double timeOnce(Vm &V, const std::string &Source);

/// Geometric mean of positive values.
double geomean(const std::vector<double> &Xs);

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

/// Opens a measurement window on the calling thread's Vm: drains its
/// histograms and returns its counters, for runStats() to subtract at the
/// window's end.
VmStats openWindow();

/// The calling thread's Vm's counters since \p Start (openWindow) and its
/// histograms. Counters and histograms are per Vm: take this while the
/// mode's Vm lives.
RunStats runStats(const VmStats &Start = VmStats());

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

  /// Records a completed mode with the counters and histograms its Vm
  /// recorded (runStats).
  BenchSeries &add(const std::string &Label,
                   const std::vector<double> &Times, const RunStats &S) {
    return add(Label, Times, S, S.Metrics);
  }

  /// Like add(), with the counters and histograms given apart — for
  /// benches that sum and drain per-phase snapshots of several Vms
  /// themselves.
  BenchSeries &add(const std::string &Label,
                   const std::vector<double> &Times, const VmStats &Stats,
                   const obs::VmMetrics &Metrics);

  /// Records a named scalar result (speedups, ratios — the
  /// machine-independent numbers bench/compare_bench.py diffs).
  void headline(const std::string &Key, double Value);
};

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
/// `--trace`.
void emitBenchArtifacts(const BenchReport &R, int Argc, char **Argv);

} // namespace rjit::suite

#endif // RJIT_BENCH_SUITE_HARNESS_H
