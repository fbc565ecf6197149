//===-- bench/suite/harness.cpp - Benchmark harness helpers ---------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "suite/harness.h"
#include "obs/trace.h"
#include "runtime/value.h"
#include "support/timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

using namespace rjit;
using namespace rjit::suite;

Vm::Config rjit::suite::benchConfig(TierStrategy S) {
  Vm::Config C;
  C.Strategy = S;
  C.CompileThreshold = 3;
  C.OsrThreshold = 100000;
  return C;
}

double rjit::suite::geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  double S = 0;
  for (double X : Xs)
    S += std::log(X);
  return std::exp(S / static_cast<double>(Xs.size()));
}

double rjit::suite::steadyGeomean(const std::vector<double> &Xs) {
  return geomean(std::vector<double>(Xs.begin() + Xs.size() / 3, Xs.end()));
}

double rjit::suite::steadyMin(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  return *std::min_element(Xs.begin() + Xs.size() / 3, Xs.end());
}

double rjit::suite::steadyMean(const std::vector<double> &Xs, size_t From,
                               size_t To) {
  From += (To - From) / 2;
  double S = 0;
  for (size_t K = From; K < To; ++K)
    S += Xs[K];
  return To > From ? S / static_cast<double>(To - From) : 0;
}

long rjit::suite::argLong(int Argc, char **Argv, const std::string &Name,
                          long Def) {
  for (int K = 1; K + 1 < Argc; ++K)
    if (Name == Argv[K])
      return std::strtol(Argv[K + 1], nullptr, 10);
  return Def;
}

bool rjit::suite::argFlag(int Argc, char **Argv, const std::string &Name) {
  for (int K = 1; K < Argc; ++K)
    if (Name == Argv[K])
      return true;
  return false;
}

const char *rjit::suite::argStr(int Argc, char **Argv,
                                const std::string &Name, const char *Def) {
  for (int K = 1; K + 1 < Argc; ++K)
    if (Name == Argv[K])
      return Argv[K + 1];
  return Def;
}

void rjit::suite::printStats(const char *Label, const VmStats &S) {
  // Registry-driven: the schema (names, membership) lives in
  // support/stats.def, shared with the JSON emission below — per-bench
  // printf lists cannot drift from the serialized counters.
  printf("# stats[%s]:", Label);
  bool Any = false;
  obs::MetricsRegistry::forEachCounter(S,
                                       [&](const char *Name, uint64_t V) {
                                         if (!V)
                                           return;
                                         printf("%s %s=%llu",
                                                Any ? "," : "", Name,
                                                (unsigned long long)V);
                                         Any = true;
                                       });
  obs::MetricsRegistry::forEachGauge(
      S, [&](const char *Name, uint64_t V, uint64_t High) {
        if (!V && !High)
          return;
        printf("%s %s=%llu(hw %llu)", Any ? "," : "", Name,
               (unsigned long long)V, (unsigned long long)High);
        Any = true;
      });
  printf("%s\n", Any ? "" : " (all zero)");
}

//===----------------------------------------------------------------------===//
// Machine-readable bench reports
//===----------------------------------------------------------------------===//

BenchSeries &BenchReport::add(const std::string &Label,
                              const std::vector<double> &Times,
                              const VmStats &Stats,
                              const obs::VmMetrics &Metrics) {
  BenchSeries S;
  S.Label = Label;
  S.Times = Times;
  S.Stats = Stats;
  S.Metrics = Metrics;
  Series.push_back(std::move(S));
  return Series.back();
}

void BenchReport::headline(const std::string &Key, double Value) {
  Headlines.push_back({Key, Value});
}

//===----------------------------------------------------------------------===//
// The A/B protocol
//===----------------------------------------------------------------------===//

Session &Session::repeat(int Times, const std::string &Timed,
                         const std::string &Pre) {
  for (int K = 0; K < Times; ++K)
    Steps.push_back({K ? "" : Pre, Timed});
  return *this;
}

std::vector<Arm> rjit::suite::paperArms() {
  return {{"normal", benchConfig(TierStrategy::Normal)},
          {"deoptless", benchConfig(TierStrategy::Deoptless)}};
}

namespace {

/// Opens a measurement window on the calling thread's Vm: drains its
/// histograms and returns its counters, for runStats() to subtract at the
/// window's end.
VmStats openWindow() {
  (void)obs::metrics().drain();
  return stats();
}

/// The calling thread's Vm's counters since \p Start (openWindow) and its
/// histograms. Counters and histograms are per Vm: take this while the
/// arm's Vm lives.
RunStats runStats(const VmStats &Start) {
  RunStats R;
  static_cast<VmStats &>(R) = stats() - Start;
  R.Metrics = obs::metrics();
  return R;
}

/// The BaselineOnly value of every step of \p S. A step's value depends on
/// its timed expression and its phase, so each distinct pair is evaluated
/// once.
std::vector<Value> referenceValues(const Session &S) {
  Vm V(benchConfig(TierStrategy::BaselineOnly));
  V.eval(S.Setup);
  std::map<std::pair<size_t, std::string>, Value> Seen;
  std::vector<Value> Refs;
  size_t Phase = 0;
  for (const Step &St : S.Steps) {
    if (!St.Pre.empty()) {
      V.eval(St.Pre);
      ++Phase;
    }
    auto It = Seen.find({Phase, St.Timed});
    if (It == Seen.end())
      It = Seen.emplace(std::make_pair(Phase, St.Timed), V.eval(St.Timed))
               .first;
    Refs.push_back(It->second);
  }
  return Refs;
}

} // namespace

SessionRun rjit::suite::runArms(BenchReport &R, const Session &S,
                                const std::vector<Arm> &Arms, int Execs) {
  const std::vector<Value> Refs = referenceValues(S);
  size_t Timed = 0;
  for (const Step &St : S.Steps)
    Timed += !St.Warmup;

  auto Label = [&](size_t A) {
    return S.Name.empty() ? Arms[A].Label : S.Name + "/" + Arms[A].Label;
  };
  SessionRun Run;
  Run.Arms.resize(Arms.size());
  for (ArmRun &A : Run.Arms) {
    A.Times.assign(Timed, 0.0);
    A.Fastest.assign(Timed, HUGE_VAL);
  }
  for (int E = 0; E < Execs; ++E) {
    for (size_t Pos = 0; Pos < Arms.size(); ++Pos) {
      const size_t A = E % 2 ? Arms.size() - 1 - Pos : Pos;
      Run.Order.push_back(A);
      ArmRun &Out = Run.Arms[A];
      Vm::Config Cfg = Arms[A].Cfg;
      Cfg.InvalidationSeed *= static_cast<uint64_t>(E) + 1;
      Vm V(Cfg);
      V.eval(S.Setup);
      VmStats Start;
      size_t J = 0;
      for (size_t K = 0; K < S.Steps.size(); ++K) {
        const Step &St = S.Steps[K];
        if (!St.Warmup && J == 0) {
          resetHeapPeak();
          Start = openWindow();
        }
        if (St.Drain)
          V.drainCompiles();
        if (!St.Pre.empty())
          V.eval(St.Pre);
        Timer T;
        Value Got = V.eval(St.Timed);
        uint64_t Ns = T.elapsedNanos();
        if (!St.Warmup) {
          obs::metrics().Iteration.record(Ns);
          double Secs = static_cast<double>(Ns) * 1e-9;
          Out.Times[J] += Secs / Execs;
          Out.Fastest[J] = std::min(Out.Fastest[J], Secs);
          ++J;
        }
        if (Got.equals(Refs[K]))
          continue;
        ++R.WrongResults;
        fprintf(stderr,
                "WRONG RESULT: %s execution %d step %zu%s: got %s, "
                "BaselineOnly gives %s\n",
                Label(A).c_str(), E, K, St.Warmup ? " (warmup)" : "",
                Got.show().c_str(), Refs[K].show().c_str());
      }
      RunStats W = runStats(Start);
      static_cast<VmStats &>(Out.Stats) += W;
      Out.Stats.Metrics += W.Metrics;
      Out.PeakHeap +=
          static_cast<double>(heapStats().PeakBytes.load()) / Execs;
    }
  }
  for (size_t A = 0; A < Arms.size(); ++A)
    R.add(Label(A), Run.Arms[A].Times, Run.Arms[A].Stats,
          Run.Arms[A].Stats.Metrics);
  return Run;
}

bool rjit::suite::benchObsInit(int Argc, char **Argv, size_t RingCapacity) {
  if (!argStr(Argc, Argv, "--trace", nullptr))
    return false;
  // A process-lifetime ref: every Vm the bench creates (whatever its own
  // Trace config) records into the rings emitBenchArtifacts exports.
  obs::traceBegin(RingCapacity);
  return true;
}

namespace {

/// Exact sample quantile (nearest-rank) of an unsorted series.
double exactQuantile(std::vector<double> Xs, double Q) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t Rank = static_cast<size_t>(
      std::ceil(Q * static_cast<double>(Xs.size())));
  if (Rank < 1)
    Rank = 1;
  return Xs[Rank - 1];
}

void jsonEscape(FILE *F, const std::string &S) {
  for (char C : S)
    if (C == '"' || C == '\\')
      fprintf(F, "\\%c", C);
    else if (static_cast<unsigned char>(C) < 0x20)
      fprintf(F, "\\u%04x", C);
    else
      fputc(C, F);
}

/// The nonzero counters of \p S as one JSON object.
void emitCounters(FILE *F, const VmStats &S) {
  fprintf(F, "{");
  bool Any = false;
  obs::MetricsRegistry::forEachCounter(S, [&](const char *Name, uint64_t V) {
    if (!V)
      return;
    fprintf(F, "%s\"%s\": %llu", Any ? ", " : "", Name,
            static_cast<unsigned long long>(V));
    Any = true;
  });
  fprintf(F, "}");
}

void emitSeries(FILE *F, const BenchSeries &S) {
  fprintf(F, "    {\n      \"label\": \"");
  jsonEscape(F, S.Label);
  fprintf(F, "\",\n      \"iterations\": %zu,\n", S.Times.size());
  fprintf(F, "      \"times_s\": [");
  for (size_t K = 0; K < S.Times.size(); ++K)
    fprintf(F, "%s%.9f", K ? ", " : "", S.Times[K]);
  fprintf(F, "],\n");
  double Sum = 0;
  for (double T : S.Times)
    Sum += T;
  fprintf(F,
          "      \"mean_s\": %.9f,\n      \"steady_s\": %.9f,\n"
          "      \"p50_s\": %.9f,\n      \"p90_s\": %.9f,\n"
          "      \"p99_s\": %.9f,\n",
          S.Times.empty() ? 0 : Sum / static_cast<double>(S.Times.size()),
          steadyGeomean(S.Times), exactQuantile(S.Times, 0.50),
          exactQuantile(S.Times, 0.90), exactQuantile(S.Times, 0.99));

  fprintf(F, "      \"counters\": ");
  emitCounters(F, S.Stats);
  if (!S.Clients.empty()) {
    fprintf(F, ",\n      \"clients\": [");
    for (size_t K = 0; K < S.Clients.size(); ++K) {
      fprintf(F, "%s", K ? ", " : "");
      emitCounters(F, S.Clients[K]);
    }
    fprintf(F, "]");
  }
  fprintf(F, ",\n      \"gauges\": {");
  bool Any = false;
  obs::MetricsRegistry::forEachGauge(
      S.Stats, [&](const char *Name, uint64_t V, uint64_t High) {
        if (!V && !High)
          return;
        fprintf(F, "%s\"%s\": {\"value\": %llu, \"high_water\": %llu}",
                Any ? ", " : "", Name, static_cast<unsigned long long>(V),
                static_cast<unsigned long long>(High));
        Any = true;
      });
  fprintf(F, "},\n      \"histograms\": {");
  Any = false;
  obs::MetricsRegistry::forEachHistogram(
      S.Metrics, [&](const char *Name, const obs::LatencyHistogram &H) {
        if (!H.count())
          return;
        fprintf(F,
                "%s\"%s\": {\"count\": %llu, \"p50\": %llu, \"p90\": "
                "%llu, \"p99\": %llu, \"max\": %llu, \"mean\": %.1f}",
                Any ? ", " : "", Name,
                static_cast<unsigned long long>(H.count()),
                static_cast<unsigned long long>(H.p50()),
                static_cast<unsigned long long>(H.p90()),
                static_cast<unsigned long long>(H.p99()),
                static_cast<unsigned long long>(H.max()), H.mean());
        Any = true;
      });
  fprintf(F, "}");
  if (!S.Extras.empty()) {
    fprintf(F, ",\n      \"extras\": {");
    for (size_t K = 0; K < S.Extras.size(); ++K) {
      fprintf(F, "%s\"", K ? ", " : "");
      jsonEscape(F, S.Extras[K].first);
      fprintf(F, "\": %.6f", S.Extras[K].second);
    }
    fprintf(F, "}");
  }
  fprintf(F, "\n    }");
}

} // namespace

int rjit::suite::emitBenchArtifacts(const BenchReport &R, int Argc,
                                    char **Argv) {
  std::string Default = "BENCH_" + R.Name + ".json";
  const char *Path = argStr(Argc, Argv, "--json", Default.c_str());
  FILE *F = fopen(Path, "w");
  if (!F) {
    fprintf(stderr, "# bench: cannot write %s\n", Path);
  } else {
    fprintf(F, "{\n  \"name\": \"");
    jsonEscape(F, R.Name);
    fprintf(F, "\",\n  \"config\": \"");
    jsonEscape(F, R.Config);
    fprintf(F, "\",\n  \"headlines\": {");
    for (size_t K = 0; K < R.Headlines.size(); ++K) {
      fprintf(F, "%s\"", K ? ", " : "");
      jsonEscape(F, R.Headlines[K].first);
      fprintf(F, "\": %.6f", R.Headlines[K].second);
    }
    fprintf(F, "},\n  \"series\": [\n");
    for (size_t K = 0; K < R.Series.size(); ++K) {
      emitSeries(F, R.Series[K]);
      fprintf(F, "%s\n", K + 1 < R.Series.size() ? "," : "");
    }
    fprintf(F, "  ]\n}\n");
    fclose(F);
    printf("# bench report: %s\n", Path);
  }

  if (const char *TracePath = argStr(Argc, Argv, "--trace", nullptr)) {
    if (obs::writeChromeTrace(TracePath))
      printf("# chrome trace: %s (%llu events, %llu dropped)\n", TracePath,
             static_cast<unsigned long long>(obs::traceEventCount()),
             static_cast<unsigned long long>(obs::traceDropped()));
    else
      fprintf(stderr, "# bench: cannot write %s\n", TracePath);
  }
  if (!R.WrongResults)
    return 0;
  fprintf(stderr, "# %llu evaluations differ from BaselineOnly\n",
          static_cast<unsigned long long>(R.WrongResults));
  return 1;
}
