//===-- deoptbench/deoptbench.cpp - Seeded end-to-end benchmark ----------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Runs one workload of the seeded benchmark for a wall-clock budget and
// prints, as its last line, one JSON object with the attempted/failed
// result counts, every metric value by name, and one row per program (or
// session kind, or the server's storm phase) and arm. deoptbench/run.py
// builds this file, attaches the units declared in BENCHMARK.json and
// checks that no metric is missing or extra.
//
// Every workload runs two arms, `deoptless` and `normal` (the paper's two
// strategies), on identical inputs, alternating which arm runs first:
//
//   steady   Fig. 6 suite, no invalidation, native tier on.
//   misspec  Fig. 6 suite, 1 in 2000 guard checks invalidated, threaded
//            LowCode interpreter (the Fig. 6 protocol).
//   phases   fresh-Vm sessions with real type changes (Figs. 4, 9, 10, 11)
//            whose timed region includes the synchronous compile pauses.
//   server   server_harness: 3 closed-loop clients sharing 1 compiler
//            thread, warmup/steady/storm/recovery, deterministic storm.
//
// A calibration kernel that shares no code with the VM runs before and
// after every execution, and the end-to-end times are rescaled by it: on a
// host whose speed drifts under other tenants' load, they drift far less
// than the raw times (deoptbench/README.md).
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1
// it reports the per-layer metrics: every other round runs with the event
// tracer on, and the round after it repeats the same inputs untraced, so
// the pair gives the tracing overhead.
//
// Usage: deoptbench --workload W --seed N --seconds S --trace 0|1
//
//===----------------------------------------------------------------------===//

#include "server_harness.h"
#include "suite/harness.h"

#include "bc/compiler.h"
#include "lang/parser.h"
#include "lowcode/lower.h"
#include "obs/trace.h"
#include "opt/pipeline.h"
#include "runtime/env.h"
#include "support/fnv.h"
#include "support/rng.h"
#include "support/timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

using namespace rjit;
using namespace rjit::suite;

namespace {

//===----------------------------------------------------------------------===//
// Arms, options, result checking
//===----------------------------------------------------------------------===//

struct Arm {
  const char *Name;
  TierStrategy Strategy;
};
constexpr Arm Arms[2] = {{"deoptless", TierStrategy::Deoptless},
                         {"normal", TierStrategy::Normal}};
constexpr int Deoptless = 0, Normal = 1;

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

/// Results checked against their BaselineOnly reference, and how many were
/// wrong. An execution or session that throws counts every result it was
/// to produce as failed.
uint64_t Attempted = 0;
uint64_t Failed = 0;

/// Open VM bugs that make one arm of one program return wrong results
/// (deoptbench/README.md, first findings). Their executions still run, are
/// timed and checked, but their wrong results count in KnownWrong instead
/// of Failed, so the count shows whether the bug got worse or went away.
/// A wrong result anywhere else fails the run.
struct KnownBug {
  const char *Workload, *Unit, *Arm;
};
constexpr KnownBug KnownBugs[] = {{"misspec", "regexdna", "normal"}};
uint64_t KnownWrong = 0;      ///< over the whole run
uint64_t KnownWrongFirst = 0; ///< in the first round: repeats exactly

bool knownBug(const std::string &Workload, const char *Unit,
              const char *Arm) {
  for (const KnownBug &B : KnownBugs)
    if (Workload == B.Workload && std::strcmp(Unit, B.Unit) == 0 &&
        std::strcmp(Arm, B.Arm) == 0)
      return true;
  return false;
}

/// One execution's checks, committed when it ends (or fails as a whole).
struct Checks {
  std::string What;
  bool Known = false; ///< wrong results are a known bug's
  uint64_t N = 0, Wrong = 0;

  void check(const std::string &Got, const std::string &Want) {
    ++N;
    if (Got != Want && ++Wrong <= 3 && !Known)
      fprintf(stderr, "deoptbench: %s: got %s, want %s\n", What.c_str(),
              Got.c_str(), Want.c_str());
  }
  void commit(bool FirstRound) {
    Attempted += N;
    if (!Known) {
      Failed += Wrong;
      return;
    }
    KnownWrong += Wrong;
    if (FirstRound)
      KnownWrongFirst += Wrong;
  }
  void fail(uint64_t Planned, const char *Why) {
    fprintf(stderr, "deoptbench: %s threw: %s\n", What.c_str(), Why);
    Attempted += Planned;
    Failed += Planned;
  }
};

uint64_t splitmix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// A non-zero seed derived from the run seed and two indices.
uint64_t deriveSeed(uint64_t Seed, uint64_t A, uint64_t B) {
  uint64_t S = splitmix(Seed ^ splitmix(A * 0x100000001B3ull + B));
  return S ? S : 1;
}

/// Nearest-rank quantile of an unsorted sample.
double quantile(std::vector<double> Xs, double Q) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(Q * static_cast<double>(Xs.size())));
  return Xs[std::min(std::max<size_t>(Rank, 1), Xs.size()) - 1];
}

double median(const std::vector<double> &Xs) { return quantile(Xs, 0.5); }

double mean(const std::vector<double> &Xs) {
  double Sum = 0;
  for (double X : Xs)
    Sum += X;
  return Xs.empty() ? 0 : Sum / static_cast<double>(Xs.size());
}

double usOf(const Timer &T) {
  return static_cast<double>(T.elapsedNanos()) * 1e-3;
}
double msOf(const Timer &T) {
  return static_cast<double>(T.elapsedNanos()) * 1e-6;
}

//===----------------------------------------------------------------------===//
// Calibration: how fast the machine is right now
//===----------------------------------------------------------------------===//

/// The calibration kernel's time on the host deoptbench/README.md gives
/// numbers for, in a quiet stretch. Every absolute time the benchmark
/// reports is rescaled by RefCalibrationMs over the kernel's time measured
/// beside it, so it reads as the time that host would have taken quiet.
constexpr double RefCalibrationMs = 0.73;

volatile int64_t CalibrationSink;

/// One pass of interpreter-shaped work that shares no code with the VM: a
/// switch-dispatched loop over an 11-instruction bytecode that reads a
/// 512 KiB table at scattered indices and boxes its accumulator on the
/// heap every step, for 20000 steps. On a shared host, other tenants slow
/// such work, and the VM's, by up to a half for seconds to minutes at a
/// time; this pass slows with the VM where a plain arithmetic loop slows
/// much less.
double calibrationPassMs() {
  constexpr int64_t Steps = 20000;
  static const std::vector<int64_t> Table = [] {
    std::vector<int64_t> T(1 << 16);
    uint64_t S = 7;
    for (int64_t &X : T) {
      S = S * 6364136223846793005ull + 1;
      X = static_cast<int64_t>(S >> 40);
    }
    return T;
  }();
  enum Op : uint8_t {
    Load, Odd, JumpIfEven, Add, Jump, Sub, Box, Inc, Less, JumpIf, End
  };
  static const uint8_t Code[] = {Load, Odd,  JumpIfEven, Add,    Jump, Sub,
                                 Box,  Inc,  Less,       JumpIf, End};
  struct Boxed {
    int64_t V;
  };

  Timer T;
  int64_t Acc = 0, I = 0, X = 0, Top = 0;
  std::unique_ptr<Boxed> Kept;
  for (size_t Pc = 0; Code[Pc] != End;) {
    switch (Code[Pc]) {
    case Load:
      X = Table[static_cast<size_t>(I * 40503) & 0xFFFF];
      ++Pc;
      break;
    case Odd:
      Top = X & 1;
      ++Pc;
      break;
    case JumpIfEven:
      Pc = Top ? Pc + 1 : 5;
      break;
    case Add:
      Acc += X;
      ++Pc;
      break;
    case Jump:
      Pc = 6;
      break;
    case Sub:
      Acc -= X >> 1;
      ++Pc;
      break;
    case Box: {
      auto B = std::make_unique<Boxed>(Boxed{Acc});
      if (Kept)
        Acc ^= Kept->V & 3;
      Kept = std::move(B);
      ++Pc;
      break;
    }
    case Inc:
      ++I;
      ++Pc;
      break;
    case Less:
      Top = I < Steps;
      ++Pc;
      break;
    case JumpIf:
      Pc = Top ? 0 : 10;
      break;
    }
  }
  CalibrationSink = Acc;
  return msOf(T);
}

/// The calibration kernel's time now: a first pass refills the caches the
/// VM work before it evicted, then the fastest of three passes, which
/// drops bursts shorter than a pass but follows a slowdown that lasts.
double calibrateMs() {
  calibrationPassMs();
  double Best = calibrationPassMs();
  for (int K = 0; K < 2; ++K)
    Best = std::min(Best, calibrationPassMs());
  return Best;
}

/// Appends the samples a histogram recorded, at its bucket resolution, so
/// the histograms of many Vms (each Vm constructor resets them) pool into
/// one exact-rank quantile. Large histograms contribute evenly spaced
/// ranks.
void appendSamplesUs(const obs::LatencyHistogram &H, std::vector<double> &Out) {
  uint64_t Take = std::min<uint64_t>(H.count(), 2048);
  for (uint64_t K = 1; K <= Take; ++K)
    Out.push_back(static_cast<double>(H.quantile(
                      (static_cast<double>(K) + 0.5) /
                      static_cast<double>(Take))) *
                  1e-3);
}

//===----------------------------------------------------------------------===//
// Trace reduction
//===----------------------------------------------------------------------===//

/// What one traced window spent per span kind, as self time: a span's
/// duration minus the spans nested directly inside it on its thread.
struct TraceTotals {
  double CompileMs[3] = {}; ///< by obs::CompileKind{Fn,Osr,Cont}
  double DeoptMs = 0;
  double GcMs = 0;
  double QueueWaitMs = 0;    ///< enqueue -> job start, summed over jobs
  double ExecutorSpanMs = 0; ///< self time of spans on executor threads
  double SideExits = 0;
  double Dropped = 0;

  void add(const TraceTotals &O) {
    for (int K = 0; K < 3; ++K)
      CompileMs[K] += O.CompileMs[K];
    DeoptMs += O.DeoptMs;
    GcMs += O.GcMs;
    QueueWaitMs += O.QueueWaitMs;
    ExecutorSpanMs += O.ExecutorSpanMs;
    SideExits += O.SideExits;
    Dropped += O.Dropped;
  }
};

/// Numeric field \p Key of one exported event object; 0 if absent.
double field(std::string_view Event, std::string_view Key) {
  size_t P = Event.find(Key);
  if (P == std::string_view::npos)
    return 0;
  return std::strtod(Event.data() + P + Key.size(), nullptr);
}

/// Exports the events recorded since the last reset (Chrome trace JSON,
/// the tracer's only export), reduces them to per-kind totals and clears
/// the rings. Call at a quiescent point.
TraceTotals drainTrace() {
  std::ostringstream Os;
  obs::exportChromeTrace(Os);
  const std::string S = Os.str();

  enum SpanKind { Compile, Job, Deopt, Gc };
  struct Span {
    double Tid, Start, Dur, Child;
    SpanKind Kind;
    int CompileKind;
  };
  std::vector<Span> Spans;
  std::vector<double> CompilerTids; // threads that ran compile jobs
  TraceTotals T;
  size_t P = S.find("\"traceEvents\"");
  while (P != std::string::npos &&
         (P = S.find("{\"name\":\"", P)) != std::string::npos) {
    size_t End = S.find("}}", P); // each event ends with its args object
    if (End == std::string::npos)
      break;
    std::string_view Ev(S.data() + P, End - P);
    std::string_view Name = Ev.substr(9, Ev.find('"', 9) - 9);
    double Tid = field(Ev, "\"tid\":");
    double Start = field(Ev, "\"ts\":") * 1e-3; // us -> ms
    double Dur = field(Ev, "\"dur\":") * 1e-3;
    if (Name == "native-side-exit") {
      ++T.SideExits;
    } else if (Name == "compile") {
      Spans.push_back(
          {Tid, Start, Dur, 0, Compile, static_cast<int>(field(Ev, "\"b\":"))});
    } else if (Name == "compile-job") {
      Spans.push_back({Tid, Start, Dur, 0, Job, 0});
      if (std::find(CompilerTids.begin(), CompilerTids.end(), Tid) ==
          CompilerTids.end())
        CompilerTids.push_back(Tid);
      T.QueueWaitMs += field(Ev, "\"a\":") * 1e-6; // ns -> ms
    } else if (Name == "deopt") {
      Spans.push_back({Tid, Start, Dur, 0, Deopt, 0});
    } else if (Name == "gc-collect") {
      Spans.push_back({Tid, Start, Dur, 0, Gc, 0});
    }
    P = End + 2;
  }
  T.Dropped = static_cast<double>(obs::traceDropped());
  obs::traceReset();

  // Spans on one thread nest (they come from nested calls): walk them in
  // start order with a stack of open spans, charging each span to the
  // innermost span still open when it starts.
  std::stable_sort(Spans.begin(), Spans.end(),
                   [](const Span &A, const Span &B) {
                     if (A.Tid != B.Tid)
                       return A.Tid < B.Tid;
                     if (A.Start != B.Start)
                       return A.Start < B.Start;
                     return A.Dur > B.Dur;
                   });
  std::vector<size_t> Open;
  for (size_t K = 0; K < Spans.size(); ++K) {
    while (!Open.empty() &&
           (Spans[Open.back()].Tid != Spans[K].Tid ||
            Spans[Open.back()].Start + Spans[Open.back()].Dur <=
                Spans[K].Start))
      Open.pop_back();
    if (!Open.empty())
      Spans[Open.back()].Child += Spans[K].Dur;
    Open.push_back(K);
  }
  for (const Span &Sp : Spans) {
    double Self = std::max(0.0, Sp.Dur - Sp.Child);
    if (Sp.Kind == Compile)
      T.CompileMs[std::min(std::max(Sp.CompileKind, 0), 2)] += Self;
    else if (Sp.Kind == Deopt)
      T.DeoptMs += Self;
    else if (Sp.Kind == Gc)
      T.GcMs += Self;
    if (std::find(CompilerTids.begin(), CompilerTids.end(), Sp.Tid) ==
        CompilerTids.end())
      T.ExecutorSpanMs += Self;
  }
  return T;
}

/// Ring capacity per recording thread. Batch workloads record on the main
/// thread only; every server session adds four recording threads, whose
/// rings the tracer keeps until the process exits.
size_t traceCapacity(const std::string &Workload) {
  return Workload == "server" ? (1u << 14) : (1u << 20);
}

//===----------------------------------------------------------------------===//
// Accumulation shared by every workload
//===----------------------------------------------------------------------===//

/// Layer costs of one traced round (or traced server session) and arm,
/// summed over its executions.
struct LayerRound {
  double ParseUs = 0, BcCompileUs = 0, OptimizeUs = 0, LowerUs = 0,
         PrepareUs = 0, CollectUs = 0;
  double TimedMs = 0; ///< executor wall of the traced timed region
  TraceTotals Trace;
};

/// Everything one arm of a workload measured.
struct ArmRecord {
  /// Per unit (program, session kind, or server request schedule): timed
  /// samples in ms as measured and rescaled by calibration, the
  /// calibration time beside each execution, and the heap peak of each
  /// execution in KiB. A server sample is one storm-phase request.
  std::vector<std::vector<double>> UnitMs;
  std::vector<std::vector<double>> UnitScaledMs;
  std::vector<std::vector<double>> UnitCalMs;
  std::vector<std::vector<double>> UnitPeakKib;
  /// Server only: every steady-phase request of every session.
  std::vector<double> SteadyMs;
  /// VM counters per unit (obs/metrics.cpp names), summed over the first
  /// round's executions: deterministic for the single-threaded workloads.
  std::vector<std::map<std::string, double>> UnitCounters;
  double GraveyardHw = 0;
  double IrInstrs = 0, LowInstrs = 0; ///< first traced round
  double TimedUnits = 0, TimedChecks = 0;
  double SideExits = 0; ///< first traced round
  /// Pooled histogram samples in us: deopt pause, compile latency, queue
  /// wait, GC pause.
  std::vector<double> HistUs[4];
  std::vector<LayerRound> Traced;

  explicit ArmRecord(size_t Units)
      : UnitMs(Units), UnitScaledMs(Units), UnitCalMs(Units),
        UnitPeakKib(Units), UnitCounters(Units) {}

  /// Records one execution's samples and heap peak, with the calibration
  /// time measured beside it.
  void addSamples(size_t Unit, const std::vector<double> &Ms, double CalMs,
                  double PeakKib) {
    for (double X : Ms) {
      UnitMs[Unit].push_back(X);
      UnitScaledMs[Unit].push_back(X * RefCalibrationMs / CalMs);
    }
    UnitCalMs[Unit].push_back(CalMs);
    UnitPeakKib[Unit].push_back(PeakKib);
  }

  void addCounters(size_t Unit, const VmStats &S) {
    obs::MetricsRegistry::forEachCounter(
        S, [&](const char *Name, uint64_t V) {
          UnitCounters[Unit][Name] += static_cast<double>(V);
        });
    GraveyardHw = std::max(GraveyardHw,
                           static_cast<double>(S.GraveyardSize.highWater()));
  }
  void addHistograms(const obs::VmMetrics &M) {
    appendSamplesUs(M.DeoptPause, HistUs[0]);
    appendSamplesUs(M.CompileLatency, HistUs[1]);
    appendSamplesUs(M.QueueWait, HistUs[2]);
    appendSamplesUs(M.GcPause, HistUs[3]);
  }
  double counter(size_t Unit, const char *Name) const {
    auto It = UnitCounters[Unit].find(Name);
    return It == UnitCounters[Unit].end() ? 0 : It->second;
  }
  double counter(const char *Name) const {
    double S = 0;
    for (size_t U = 0; U < UnitCounters.size(); ++U)
      S += counter(U, Name);
    return S;
  }
};

/// One workload's measurements, ready for emission.
struct WorkloadRun {
  std::vector<std::string> UnitNames;
  /// When set, the rows pool every unit under this one name.
  std::string RowGroup;
  std::vector<ArmRecord> ArmRecs;
  /// A unit's typical time: the median of its samples, or their mean
  /// where the samples mix kinds of work (the server's requests).
  double (*Typical)(const std::vector<double> &) = median;
  /// The workload's tail quantile: a high one that still leaves at least
  /// ten samples beyond it in a unit.
  double TailQ = 0.75;
  /// What a sample, the typical time and the tail are, for the report
  /// header.
  const char *Samples =
      "sample = one timed iteration; typical = median; tail = p75";
  std::vector<double> SetupS; ///< set-up seconds, one per repeat
  double ReferenceMs = 0;     ///< BaselineOnly reference run(s)
  /// Timed ms of each traced execution and of its untraced twin, keyed by
  /// (input round, unit, arm).
  std::map<std::tuple<uint64_t, size_t, int>, std::pair<double, double>>
      TwinMs;

  explicit WorkloadRun(std::vector<std::string> Names)
      : UnitNames(std::move(Names)) {
    ArmRecs.emplace_back(UnitNames.size());
    ArmRecs.emplace_back(UnitNames.size());
  }

  /// Records an execution of a traced run's round \p R: even rounds trace,
  /// odd rounds repeat their predecessor's inputs untraced.
  void addTwin(int R, size_t Unit, int A, double Ms) {
    std::pair<double, double> &T = TwinMs[{R / 2, Unit, A}];
    (R % 2 == 0 ? T.first : T.second) = Ms;
  }
};

/// Runs rounds until the next one would overrun the budget (by the mean
/// round so far), and at least \p MinRounds.
template <typename Fn>
void runRounds(const RunOptions &O, int MinRounds, Fn Round) {
  Timer Budget;
  for (int R = 0;; ++R) {
    double Spent = Budget.elapsedSeconds();
    if (R >= MinRounds && Spent + Spent / R > O.Seconds)
      break;
    Round(R);
  }
}

/// Which rounds trace: in a traced run, even rounds trace and each odd
/// round repeats its predecessor's inputs untraced.
bool tracedRound(const RunOptions &O, int R) { return O.Trace && R % 2 == 0; }
uint64_t inputRound(const RunOptions &O, int R) {
  return O.Trace ? static_cast<uint64_t>(R / 2) : static_cast<uint64_t>(R);
}

/// Seeded shuffle of 0..N-1, one order per round.
std::vector<size_t> unitOrder(const RunOptions &O, size_t N, int R) {
  std::vector<size_t> Order(N);
  for (size_t K = 0; K < N; ++K)
    Order[K] = K;
  Rng Shuffle(deriveSeed(O.Seed, 0xB0, inputRound(O, R)));
  for (size_t K = N; K > 1; --K)
    std::swap(Order[K - 1], Order[Shuffle.below(K)]);
  return Order;
}

/// Times the layer entry points from outside, on the Vm an execution just
/// ran: the front end on \p Source, then optimize, lower and prepare on
/// every closure bound in the global environment (from the feedback the
/// Vm compiled from), then a forced heap collection. The prepared code is
/// dropped unpublished. \p CountInto, when set, receives instruction
/// counts.
void measureLayers(Vm &V, const std::string &Source, LayerRound &L,
                   ArmRecord *CountInto) {
  Timer T;
  ParseResult PR = parseProgram(Source);
  L.ParseUs += usOf(T);
  if (PR.ok()) {
    T.restart();
    BcResult B = compileToBc(*PR.Ast);
    L.BcCompileUs += usOf(T);
  }

  const Vm::Config &C = V.config();
  OptOptions O;
  O.Speculate = C.Speculate;
  O.Inline = C.inlineView();
  O.Loop = C.LoopOpts;
  O.VerifyEachPass = C.VerifyBetweenPasses;
  O.Backend = V.backend();
  for (const auto &Binding : V.global()->bindings()) {
    if (Binding.second.tag() != Tag::Clos)
      continue;
    Function *Fn = Binding.second.closObj()->Fn;
    T.restart();
    std::unique_ptr<IrCode> Ir =
        optimizeToIr(Fn, CallConv::FullElided, EntryState(), O);
    if (!Ir)
      Ir = optimizeToIr(Fn, CallConv::FullEnv, EntryState(), O);
    L.OptimizeUs += usOf(T);
    if (!Ir)
      continue;
    size_t IrCount = 0;
    Ir->eachInstr([&](Instr *) { ++IrCount; });
    T.restart();
    std::unique_ptr<LowFunction> Low = lowerToLow(*Ir);
    L.LowerUs += usOf(T);
    size_t LowCount = Low->Code.size();
    T.restart();
    std::unique_ptr<ExecutableCode> Code =
        V.backend()->prepare(std::move(Low));
    L.PrepareUs += usOf(T);
    if (CountInto) {
      CountInto->IrInstrs += static_cast<double>(IrCount);
      CountInto->LowInstrs += static_cast<double>(LowCount);
    }
  }
  T.restart();
  V.collectHeap();
  L.CollectUs += usOf(T);
}

double peakHeapKib() {
  return static_cast<double>(heapStats().PeakBytes.load()) / 1024.0;
}

/// What a batch or phases execution records once its timed region ended:
/// its samples (with the calibration time beside them), heap peak and
/// histograms, the first round's counters, and in traced runs the twin
/// timing and (traced rounds) the layer costs, measured from outside on
/// \p Source.
void finishExecution(WorkloadRun &W, const RunOptions &O, int R, size_t U,
                     int A, Vm &V, const VmStats &AtTimed, size_t TimedUnits,
                     const std::vector<double> &Samples, double CalMs,
                     const std::string &Source, LayerRound &L) {
  ArmRecord &Rec = W.ArmRecs[A];
  double TimedMs = 0;
  for (double X : Samples)
    TimedMs += X;
  Rec.addSamples(U, Samples, CalMs, peakHeapKib());
  Rec.addHistograms(obs::metrics());
  if (R == 0) {
    VmStats End = stats();
    Rec.addCounters(U, End);
    Rec.TimedUnits += static_cast<double>(TimedUnits);
    Rec.TimedChecks += static_cast<double>(End.AssumeChecks.load() -
                                           AtTimed.AssumeChecks.load());
  }
  if (!O.Trace)
    return;
  W.addTwin(R, U, A, TimedMs);
  if (!tracedRound(O, R))
    return;
  L.Trace.add(drainTrace());
  L.TimedMs += TimedMs;
  measureLayers(V, Source, L, R == 0 ? &Rec : nullptr);
}

/// Closes a batch or phases round: its set-up total, and in a traced round
/// the per-arm layer costs.
void finishRound(WorkloadRun &W, const RunOptions &O, int R, double SetupS,
                 const LayerRound (&Layers)[2]) {
  W.SetupS.push_back(SetupS);
  if (!tracedRound(O, R))
    return;
  for (int A = 0; A < 2; ++A) {
    if (R == 0)
      W.ArmRecs[A].SideExits = Layers[A].Trace.SideExits;
    W.ArmRecs[A].Traced.push_back(Layers[A]);
  }
}

//===----------------------------------------------------------------------===//
// Batch workloads: steady and misspec
//===----------------------------------------------------------------------===//

constexpr int WarmupIters = 3;
constexpr int TimedIters = 12;

/// The Fig. 6 suite, each program in a fresh Vm per arm per round: set-up
/// (Vm construction, Setup, 3 warmup iterations), then 12 timed
/// iterations, with a calibration before and after. Invalidation seeds
/// derive from the run seed, the program and the round, identical across
/// arms.
WorkloadRun runBatch(const RunOptions &O, bool Native, uint64_t Rate) {
  size_t N;
  const Program *Progs = mainSuite(N);
  std::vector<std::string> Names;
  for (size_t P = 0; P < N; ++P)
    Names.push_back(Progs[P].Name);
  WorkloadRun W(Names);

  std::vector<std::string> Want(N);
  for (size_t P = 0; P < N; ++P) {
    Vm Ref(benchConfig(TierStrategy::BaselineOnly));
    Ref.eval(Progs[P].Setup);
    Timer T;
    Want[P] = Ref.eval(Progs[P].Driver).show();
    W.ReferenceMs += msOf(T);
  }

  runRounds(O, O.Trace ? 2 : 1, [&](int R) {
    const bool Traced = tracedRound(O, R);
    double SetupS = 0;
    LayerRound Layers[2];
    for (size_t P : unitOrder(O, N, R)) {
      const Program &Prog = Progs[P];
      for (int Pos = 0; Pos < 2; ++Pos) {
        const int A = (R + static_cast<int>(P) + Pos) % 2;
        Vm::Config C = benchConfig(Arms[A].Strategy);
        C.NativeTier = Native;
        C.InvalidationRate = Rate;
        C.InvalidationSeed = deriveSeed(O.Seed, P, inputRound(O, R));
        C.Trace.Enabled = false;
        Checks Chk{std::string(Prog.Name) + "/" + Arms[A].Name,
                   knownBug(O.Workload, Prog.Name, Arms[A].Name)};
        try {
          const double CalBefore = calibrateMs();
          resetHeapPeak();
          Timer Setup;
          Vm V(C);
          V.eval(Prog.Setup);
          for (int K = 0; K < WarmupIters; ++K)
            Chk.check(V.eval(Prog.Driver).show(), Want[P]);
          const double SetupMs = msOf(Setup);

          VmStats AtTimed = stats();
          if (Traced)
            obs::traceBegin(traceCapacity(O.Workload));
          std::vector<double> Iters;
          for (int K = 0; K < TimedIters; ++K) {
            Timer T;
            Value Got = V.eval(Prog.Driver);
            Iters.push_back(msOf(T));
            Chk.check(Got.show(), Want[P]);
          }
          if (Traced)
            obs::traceEnd();
          const double CalMs = (CalBefore + calibrateMs()) / 2;
          SetupS += SetupMs * 1e-3 * RefCalibrationMs / CalMs;
          finishExecution(W, O, R, P, A, V, AtTimed, TimedIters, Iters, CalMs,
                          std::string(Prog.Setup) + "\n" + Prog.Driver,
                          Layers[A]);
          Chk.commit(R == 0);
        } catch (const std::exception &E) {
          if (Traced && obs::traceOn())
            obs::traceEnd();
          Chk.fail(WarmupIters + TimedIters, E.what());
        }
      }
    }
    finishRound(W, O, R, SetupS, Layers);
  });
  return W;
}

//===----------------------------------------------------------------------===//
// phases: sessions with real type changes and compile pauses
//===----------------------------------------------------------------------===//

/// One session step: untimed preparation (may be empty), then a timed
/// expression whose result is checked.
struct Step {
  std::string Pre;
  std::string Timed;
};

struct Session {
  const char *Name;
  const char *Program; ///< suite/programs entry providing Setup
  std::string Extra;   ///< untimed set-up after Setup
  std::vector<Step> Steps;
};

void repeatStep(Session &S, const std::string &Pre, const std::string &Expr,
                int Times) {
  for (int K = 0; K < Times; ++K)
    S.Steps.push_back({K ? "" : Pre, Expr});
}

/// The phase-change sessions. The seed draws the summed data (values only:
/// types and sizes, hence cost, are fixed).
std::vector<Session> phaseSessions(uint64_t Seed) {
  std::vector<Session> Out;

  // Fig. 4: sum over int -> float -> complex -> float data.
  Session Sum{"sum", "sum", "set.seed(" + std::to_string(Seed % 1000000) +
                                "L)", {}};
  const std::string Draw = "runif(20000L) * 100";
  const std::string Ints =
      "(1:20000 * " + std::to_string(1001 + 2 * (Seed % 4000)) + "L) %% 100L";
  repeatStep(Sum, "data <- " + Ints, "sum_data(data)", 4);
  repeatStep(Sum, "data <- " + Draw, "sum_data(data)", 4);
  repeatStep(Sum, "data <- as.complex(" + Draw + ")", "sum_data(data)", 4);
  repeatStep(Sum, "data <- " + Draw, "sum_data(data)", 4);
  Out.push_back(Sum);

  // Fig. 10: column sums; the first double column appears at column 5.
  Session Col{"colsum", "colsum", "t <- make_table(16L, 2000L)", {}};
  for (int K = 1; K <= 16; ++K)
    Col.Steps.push_back({"", "col_f(" + std::to_string(K) + "L, t)"});
  Out.push_back(Col);

  // Fig. 9: the height map changes type, then the interpolation function.
  Session RayType{"raytrace_type", "raytrace", "", {}};
  const std::string Cast = "cast_rays(hm, 20L, interp_bilinear, 0.7, 0.4)";
  repeatStep(RayType, "hm <- make_heightmap_int(20L)", Cast, 4);
  repeatStep(RayType, "hm <- make_heightmap(20L)", Cast, 4);
  Out.push_back(RayType);

  Session RayFun{"raytrace_fun", "raytrace", "hm <- make_heightmap(20L)", {}};
  const std::string CastVar = "cast_rays(hm, 20L, interp, 0.7, 0.4)";
  repeatStep(RayFun, "interp <- interp_bilinear", CastVar, 4);
  repeatStep(RayFun, "interp <- interp_nearest", CastVar, 4);
  Out.push_back(RayFun);

  // Fig. 11: the RSA key changes from int to double.
  Session Rsa{"rsa", "rsa", "", {}};
  repeatStep(Rsa, "key <- 65L", "rsa_run(key, 200L)", 4);
  repeatStep(Rsa, "key <- 65", "rsa_run(key, 200L)", 8);
  Out.push_back(Rsa);
  return Out;
}

/// Runs one session in a fresh Vm; returns the results of its timed steps
/// and adds the timed wall to \p TimedMs. \p Traced records the timed
/// steps only.
std::vector<std::string> runSession(const Session &S, Vm &V, bool Traced,
                                    size_t Capacity, double &TimedMs) {
  std::vector<std::string> Results;
  for (const Step &St : S.Steps) {
    if (!St.Pre.empty())
      V.eval(St.Pre);
    if (Traced)
      obs::traceBegin(Capacity);
    Timer T;
    Value R = V.eval(St.Timed);
    TimedMs += msOf(T);
    if (Traced)
      obs::traceEnd();
    Results.push_back(R.show());
  }
  return Results;
}

WorkloadRun runPhases(const RunOptions &O) {
  std::vector<Session> Sessions = phaseSessions(O.Seed);
  std::vector<std::string> Names;
  for (const Session &S : Sessions)
    Names.push_back(S.Name);
  WorkloadRun W(Names);
  W.TailQ = 0.9;
  W.Samples =
      "sample = one session's timed wall; typical = median; tail = p90";

  auto setUp = [](const Session &S, Vm &V) {
    V.eval(byName(S.Program)->Setup);
    if (!S.Extra.empty())
      V.eval(S.Extra);
  };
  std::vector<std::vector<std::string>> Want;
  for (const Session &S : Sessions) {
    Vm Ref(benchConfig(TierStrategy::BaselineOnly));
    setUp(S, Ref);
    double Ms = 0;
    Want.push_back(runSession(S, Ref, false, 0, Ms));
    W.ReferenceMs += Ms;
  }

  runRounds(O, O.Trace ? 2 : 1, [&](int R) {
    const bool Traced = tracedRound(O, R);
    double SetupS = 0;
    LayerRound Layers[2];
    for (size_t U : unitOrder(O, Sessions.size(), R)) {
      const Session &S = Sessions[U];
      for (int Pos = 0; Pos < 2; ++Pos) {
        const int A = (R + static_cast<int>(U) + Pos) % 2;
        Vm::Config C = benchConfig(Arms[A].Strategy);
        C.NativeTier = false;
        C.Trace.Enabled = false;
        Checks Chk{std::string(S.Name) + "/" + Arms[A].Name,
                   knownBug(O.Workload, S.Name, Arms[A].Name)};
        try {
          const double CalBefore = calibrateMs();
          resetHeapPeak();
          Timer Setup;
          Vm V(C);
          setUp(S, V);
          const double SetupMs = msOf(Setup);
          VmStats AtTimed = stats();
          double SessionMs = 0;
          std::vector<std::string> Got =
              runSession(S, V, Traced, traceCapacity(O.Workload), SessionMs);
          for (size_t K = 0; K < Got.size(); ++K)
            Chk.check(Got[K], Want[U][K]);
          const double CalMs = (CalBefore + calibrateMs()) / 2;
          SetupS += SetupMs * 1e-3 * RefCalibrationMs / CalMs;
          finishExecution(W, O, R, U, A, V, AtTimed, S.Steps.size(),
                          {SessionMs}, CalMs,
                          std::string(byName(S.Program)->Setup) + "\n" +
                              S.Extra,
                          Layers[A]);
          Chk.commit(R == 0);
        } catch (const std::exception &E) {
          if (obs::traceOn())
            obs::traceEnd();
          Chk.fail(S.Steps.size(), E.what());
        }
      }
    }
    finishRound(W, O, R, SetupS, Layers);
  });
  return W;
}

//===----------------------------------------------------------------------===//
// server: closed-loop clients through deopt storms
//===----------------------------------------------------------------------===//

constexpr unsigned ServerClients = 3;
/// Distinct request schedules per run. A schedule sets the request mix,
/// and the arms' ratio differs by up to 1.5x between schedules, so a run
/// needs many for its medians to repeat across seeds.
constexpr unsigned SessionSeeds = 64;
constexpr int MaxTracedSessions = 16;  ///< bounds the tracer's retained rings
constexpr int SetupRepeats = 80;

ServerConfig serverConfig(TierStrategy S, uint64_t Seed, bool Empty) {
  ServerConfig SC;
  SC.Clients = ServerClients;
  SC.CompilerThreads = 1;
  SC.Seed = Seed;
  SC.WarmupRequests = Empty ? 0 : 100;
  SC.SteadyRequests = Empty ? 0 : 400;
  SC.StormRequests = Empty ? 0 : 400;
  SC.RecoveryRequests = Empty ? 0 : 300;
  SC.InjectEveryRequests = 6;
  SC.ChaosIntervalUs = 0;
  SC.CollectTimes = true;
  SC.Base.Strategy = S;
  SC.Base.CompileThreshold = 3;
  SC.Base.NativeTier = false;
  SC.Base.Trace.Enabled = false;
  return SC;
}

uint64_t requestsPerClient(const ServerConfig &SC) {
  return SC.WarmupRequests + SC.SteadyRequests + SC.StormRequests +
         SC.RecoveryRequests;
}

WorkloadRun runServerWorkload(const RunOptions &O) {
  std::vector<std::string> Names;
  for (unsigned K = 0; K < SessionSeeds; ++K)
    Names.push_back("schedule" + std::to_string(K));
  WorkloadRun W(Names);
  W.RowGroup = "storm";
  // Request latencies cluster by request kind, and the median of the mix
  // falls near a gap between clusters: a small shift moved it between two
  // values 10% apart from run to run. The mean, the storm phase's wall per
  // request and client, moves smoothly.
  W.Typical = mean;
  W.TailQ = 0.99;
  W.Samples = "unit = one request schedule; sample = one storm-phase "
              "request of any of its sessions; typical = mean; tail = p99";

  std::vector<std::vector<uint64_t>> Want;
  std::vector<double> RefMs;
  for (unsigned K = 0; K < SessionSeeds; ++K) {
    Timer T;
    Want.push_back(runServer(serverConfig(TierStrategy::BaselineOnly,
                                          deriveSeed(O.Seed, 0x5E, K), false))
                       .ClientChecksums);
    RefMs.push_back(msOf(T));
  }
  W.ReferenceMs = median(RefMs);

  // Set-up: sessions that spawn their clients, build and set up each
  // client Vm, then end without requests. They take well under a
  // millisecond each, so one calibration brackets them all.
  const double CalBefore = calibrateMs();
  std::vector<double> SetupS;
  for (int K = 0; K < SetupRepeats; ++K) {
    Timer T;
    runServer(serverConfig(Arms[K % 2].Strategy, deriveSeed(O.Seed, 0x5E, 0),
                           true));
    SetupS.push_back(T.elapsedSeconds());
  }
  const double CalMs = (CalBefore + calibrateMs()) / 2;
  for (double S : SetupS)
    W.SetupS.push_back(S * RefCalibrationMs / CalMs);

  int Sessions = 0;
  runRounds(O, O.Trace ? 2 : 1, [&](int R) {
    const bool Traced = tracedRound(O, R) && R < MaxTracedSessions;
    const bool Paired = O.Trace && R < MaxTracedSessions;
    const unsigned SeedIdx = inputRound(O, R) % SessionSeeds;
    for (int Pos = 0; Pos < 2; ++Pos) {
      const int A = (R + Pos) % 2;
      ArmRecord &Rec = W.ArmRecs[A];
      ServerConfig SC = serverConfig(
          Arms[A].Strategy, deriveSeed(O.Seed, 0x5E, SeedIdx), false);
      std::string What = std::string("server/") + Arms[A].Name;
      const double CalBefore = calibrateMs();
      if (Traced) {
        obs::traceReset();
        obs::traceBegin(traceCapacity(O.Workload));
      }
      try {
        ServerResult SR = runServer(SC);
        if (Traced)
          obs::traceEnd();
        const double CalMs = (CalBefore + calibrateMs()) / 2;
        for (unsigned C = 0; C < ServerClients; ++C) {
          Attempted += requestsPerClient(SC);
          if (SR.ClientChecksums[C] != Want[SeedIdx][C]) {
            Failed += requestsPerClient(SC);
            fprintf(stderr, "deoptbench: %s client %u: wrong checksum\n",
                    What.c_str(), C);
          }
        }
        double RequestMs = 0;
        double PeakKib = 0;
        for (unsigned P = 0; P < NumServerPhases; ++P) {
          const ServerPhaseReport &Ph = SR.Phases[P];
          for (double S : Ph.Times)
            RequestMs += S * 1e3;
          PeakKib = std::max(PeakKib,
                            static_cast<double>(Ph.HeapPeakBytes) / 1024.0);
          Rec.addCounters(SeedIdx, Ph.Stats);
          Rec.addHistograms(Ph.Metrics);
          Rec.TimedChecks += static_cast<double>(Ph.Stats.AssumeChecks.load());
          Rec.TimedUnits += static_cast<double>(Ph.Times.size());
        }
        std::vector<double> StormMs;
        for (double S : SR.phase(ServerPhase::Storm).Times)
          StormMs.push_back(S * 1e3);
        for (double S : SR.phase(ServerPhase::Steady).Times)
          Rec.SteadyMs.push_back(S * 1e3);
        Rec.addSamples(SeedIdx, StormMs, CalMs, PeakKib);
        if (Paired)
          W.addTwin(R, SeedIdx, A, RequestMs);
        if (Traced) {
          LayerRound L;
          L.Trace = drainTrace();
          L.TimedMs = RequestMs;
          if (R == 0)
            Rec.SideExits = L.Trace.SideExits;
          Rec.Traced.push_back(L);
        }
      } catch (const std::exception &E) {
        if (Traced && obs::traceOn())
          obs::traceEnd();
        Checks Chk{What};
        Chk.fail(ServerClients * requestsPerClient(SC), E.what());
      }
    }
    ++Sessions;
  });

  // Counters are reported per session: threads make them nondeterministic,
  // so the per-session mean over every session is the stable figure.
  for (ArmRecord &Rec : W.ArmRecs) {
    for (auto &Unit : Rec.UnitCounters)
      for (auto &KV : Unit)
        KV.second /= Sessions;
    Rec.TimedChecks /= Sessions;
    Rec.TimedUnits /= Sessions;
  }
  return W;
}

//===----------------------------------------------------------------------===//
// Inputs defined outside deoptbench/
//===----------------------------------------------------------------------===//

/// The workloads take their programs from bench/suite/programs, their Vm
/// thresholds from suite::benchConfig and their request mix from
/// bench/server_harness, none of which lies under deoptbench/. Each run
/// fingerprints what it takes from there and refuses to report when the
/// fingerprint differs from the one pinned here, so a change to a
/// workload's inputs cannot pass for a change in speed without a change
/// under deoptbench/.
struct PinnedInputs {
  const char *Workload;
  uint64_t Fingerprint;
};
constexpr PinnedInputs Pinned[] = {{"steady", 0xe961cced63285588},
                                   {"misspec", 0xe961cced63285588},
                                   {"phases", 0xd66a2192ef38fc89},
                                   {"server", 0x1447b2154b9ab31e}};

void mixText(FnvHasher &H, const char *Text) {
  for (; *Text; ++Text)
    H.mix(static_cast<unsigned char>(*Text));
}

/// FNV-1a over the benchConfig thresholds and the text of the programs
/// the workload runs; for the server, over the per-client result checksums
/// of one BaselineOnly session on a fixed schedule, which fold in the
/// request mix and its data.
uint64_t inputsFingerprint(const std::string &Workload) {
  const Vm::Config C = benchConfig(TierStrategy::Normal);
  FnvHasher H;
  H.mix(C.CompileThreshold);
  H.mix(C.OsrThreshold);
  if (Workload == "server") {
    for (uint64_t X :
         runServer(serverConfig(TierStrategy::BaselineOnly, 1, false))
             .ClientChecksums)
      H.mix(X);
  } else if (Workload == "phases") {
    for (const Session &S : phaseSessions(1))
      mixText(H, byName(S.Program)->Setup);
  } else {
    size_t N;
    const Program *Progs = mainSuite(N);
    for (size_t P = 0; P < N; ++P)
      for (const char *Text : {Progs[P].Name, Progs[P].Setup, Progs[P].Driver})
        mixText(H, Text);
  }
  return H.H;
}

/// True when the workload's inputs match the pinned fingerprint; reports
/// the difference otherwise.
bool inputsPinned(const std::string &Workload) {
  const uint64_t Got = inputsFingerprint(Workload);
  for (const PinnedInputs &P : Pinned)
    if (Workload == P.Workload && Got == P.Fingerprint)
      return true;
  fprintf(stderr,
          "deoptbench: the inputs of workload %s changed outside deoptbench/ "
          "(fingerprint %#llx). A changed workload is not comparable with "
          "earlier runs: review the change, then pin the new fingerprint in "
          "deoptbench/deoptbench.cpp.\n",
          Workload.c_str(), static_cast<unsigned long long>(Got));
  return false;
}

//===----------------------------------------------------------------------===//
// Emission
//===----------------------------------------------------------------------===//

using MetricList = std::vector<std::pair<std::string, double>>;

std::string jsonNum(double X) {
  char Buf[64];
  snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(X) ? X : 0.0);
  return Buf;
}

double safeDiv(double A, double B) { return B != 0 ? A / B : 0; }

/// Unit \p U's normal/deoptless ratios of the typical time and of the tail
/// quantile; false when an arm has no samples for it.
bool unitRatios(const WorkloadRun &W, size_t U, double &Typical,
                double &Tail) {
  const ArmRecord &Dl = W.ArmRecs[Deoptless], &No = W.ArmRecs[Normal];
  if (Dl.UnitMs[U].empty() || No.UnitMs[U].empty())
    return false;
  Typical =
      safeDiv(W.Typical(No.UnitScaledMs[U]), W.Typical(Dl.UnitScaledMs[U]));
  Tail = safeDiv(quantile(No.UnitScaledMs[U], W.TailQ),
                 quantile(Dl.UnitScaledMs[U], W.TailQ));
  return true;
}

/// time_ms and peak_heap_kib per arm are geomeans over units of each
/// unit's typical rescaled time and median heap peak. speedup and
/// tail_speedup are geomeans over units of normal/deoptless ratios of the
/// rescaled times' typical value and tail quantile.
void endToEnd(const WorkloadRun &W, MetricList &M) {
  std::vector<double> TypicalRatio, TailRatio;
  for (size_t U = 0; U < W.UnitNames.size(); ++U) {
    double Typical, Tail;
    if (!unitRatios(W, U, Typical, Tail))
      continue;
    TypicalRatio.push_back(Typical);
    TailRatio.push_back(Tail);
  }
  for (int A = 0; A < 2; ++A) {
    const ArmRecord &Rec = W.ArmRecs[A];
    std::vector<double> Ms, Peak;
    for (size_t U = 0; U < W.UnitNames.size(); ++U) {
      if (Rec.UnitMs[U].empty())
        continue;
      Ms.push_back(W.Typical(Rec.UnitScaledMs[U]));
      Peak.push_back(median(Rec.UnitPeakKib[U]));
    }
    M.push_back({std::string("time_ms.") + Arms[A].Name, geomean(Ms)});
    M.push_back({std::string("peak_heap_kib.") + Arms[A].Name, geomean(Peak)});
  }
  M.push_back({"speedup", geomean(TypicalRatio)});
  M.push_back({"tail_speedup", geomean(TailRatio)});
  M.push_back({"setup_s", median(W.SetupS)});
}

/// Median over traced rounds of one LayerRound quantity.
template <typename Fn> double tracedMedian(const ArmRecord &Rec, Fn Get) {
  std::vector<double> Xs;
  for (const LayerRound &L : Rec.Traced)
    Xs.push_back(Get(L));
  return median(Xs);
}

void perLayer(const WorkloadRun &W, MetricList &M) {
  const ArmRecord &Dl = W.ArmRecs[Deoptless];
  M.push_back({"lang.parse_us",
               tracedMedian(Dl, [](const LayerRound &L) { return L.ParseUs; })});
  M.push_back({"bc.compile_us", tracedMedian(Dl, [](const LayerRound &L) {
                 return L.BcCompileUs;
               })});
  M.push_back({"bc.interp_ms", W.ReferenceMs});
  std::vector<double> Ratios;
  for (const auto &KV : W.TwinMs)
    if (KV.second.first > 0 && KV.second.second > 0)
      Ratios.push_back(KV.second.first / KV.second.second);
  M.push_back({"trace.overhead_pct", (median(Ratios) - 1) * 100});
  double Dropped = 0;
  for (const ArmRecord &Rec : W.ArmRecs)
    for (const LayerRound &L : Rec.Traced)
      Dropped += L.Trace.Dropped;
  M.push_back({"trace.dropped", Dropped});
  // How much slower than the unloaded reference host the calibration ran:
  // the factor the end-to-end times were rescaled by.
  std::vector<double> Slowdown;
  for (const ArmRecord &Rec : W.ArmRecs)
    for (const auto &Unit : Rec.UnitCalMs)
      for (double CalMs : Unit)
        Slowdown.push_back(CalMs / RefCalibrationMs);
  M.push_back({"host.slowdown", median(Slowdown)});
  M.push_back({"check.known_wrong", static_cast<double>(KnownWrongFirst)});
  // Continuation work per deoptless hit: the guard checks deoptless ran
  // beyond normal's, per hit.
  M.push_back({"osr.checks_per_dl_hit",
               safeDiv(Dl.counter("assume_checks") -
                           W.ArmRecs[Normal].counter("assume_checks"),
                       Dl.counter("deoptless_hits"))});

  static const std::pair<const char *, const char *> Counted[] = {
      {"opt.hoisted_guards", "hoisted_guards"},
      {"opt.eliminated_guards", "eliminated_guards"},
      {"native.enters", "native_enters"},
      {"native.reg_spills", "native_reg_spills"},
      {"native.fused_ops", "native_fused_ops"},
      {"native.linked_transfers", "native_linked_transfers"},
      {"osr.deopts", "deopts"},
      {"osr.osr_in_entries", "osr_in_entries"},
      {"vm.compilations", "compilations"},
      {"compile.async_compiles", "async_compiles"},
      {"runtime.gc_collections", "gc_collections"},
  };
  static const std::pair<const char *, const char *> DeoptlessOnly[] = {
      {"osr.deoptless_attempts", "deoptless_attempts"},
      {"osr.deoptless_hits", "deoptless_hits"},
      {"osr.deoptless_compiles", "deoptless_compiles"},
      {"osr.deoptless_rejected", "deoptless_rejected"},
  };
  for (int A = 0; A < 2; ++A) {
    const ArmRecord &Rec = W.ArmRecs[A];
    const std::string Sfx = std::string(".") + Arms[A].Name;
    auto med = [&](double LayerRound::*F) {
      return tracedMedian(Rec, [F](const LayerRound &L) { return L.*F; });
    };
    auto trace = [&](auto Get) {
      return tracedMedian(Rec,
                          [&](const LayerRound &L) { return Get(L.Trace); });
    };
    M.push_back({"opt.optimize_us" + Sfx, med(&LayerRound::OptimizeUs)});
    M.push_back({"opt.ir_instrs" + Sfx, Rec.IrInstrs});
    M.push_back({"lowcode.lower_us" + Sfx, med(&LayerRound::LowerUs)});
    M.push_back({"lowcode.low_instrs" + Sfx, Rec.LowInstrs});
    M.push_back({"native.prepare_us" + Sfx, med(&LayerRound::PrepareUs)});
    M.push_back({"runtime.collect_us" + Sfx, med(&LayerRound::CollectUs)});
    M.push_back({"lowcode.assume_checks_per_iter" + Sfx,
                 safeDiv(Rec.TimedChecks, Rec.TimedUnits)});
    for (const auto &C : Counted)
      M.push_back({C.first + Sfx, Rec.counter(C.second)});
    if (A == Deoptless) {
      for (const auto &C : DeoptlessOnly)
        M.push_back({C.first + Sfx, Rec.counter(C.second)});
      M.push_back({"osr.deoptless_hit_ratio" + Sfx,
                   safeDiv(Rec.counter("deoptless_hits"),
                           Rec.counter("deoptless_attempts"))});
    }
    M.push_back({"osr.deopt_pause_us_p99" + Sfx, quantile(Rec.HistUs[0], 0.99)});
    M.push_back({"compile.latency_us_p99" + Sfx, quantile(Rec.HistUs[1], 0.99)});
    M.push_back(
        {"compile.queue_wait_us_p99" + Sfx, quantile(Rec.HistUs[2], 0.99)});
    M.push_back({"runtime.gc_pause_us_p99" + Sfx, quantile(Rec.HistUs[3], 0.99)});
    M.push_back({"exec.graveyard_hw" + Sfx, Rec.GraveyardHw});
    // Server samples are storm-phase requests; only the server records
    // steady-phase ones.
    std::vector<double> Storm;
    if (!Rec.SteadyMs.empty())
      for (const auto &Unit : Rec.UnitMs)
        Storm.insert(Storm.end(), Unit.begin(), Unit.end());
    M.push_back({"server.storm_p999_us" + Sfx, quantile(Storm, 0.999) * 1e3});
    M.push_back(
        {"server.steady_p99_us" + Sfx, quantile(Rec.SteadyMs, 0.99) * 1e3});
    M.push_back({"trace.compile_fn_ms" + Sfx,
                 trace([](const TraceTotals &T) { return T.CompileMs[0]; })});
    M.push_back({"trace.compile_osr_ms" + Sfx,
                 trace([](const TraceTotals &T) { return T.CompileMs[1]; })});
    M.push_back({"trace.compile_cont_ms" + Sfx,
                 trace([](const TraceTotals &T) { return T.CompileMs[2]; })});
    M.push_back({"trace.deopt_ms" + Sfx,
                 trace([](const TraceTotals &T) { return T.DeoptMs; })});
    M.push_back({"trace.gc_ms" + Sfx,
                 trace([](const TraceTotals &T) { return T.GcMs; })});
    M.push_back({"trace.queue_wait_ms" + Sfx,
                 trace([](const TraceTotals &T) { return T.QueueWaitMs; })});
    M.push_back({"trace.native_side_exits" + Sfx, Rec.SideExits});
    M.push_back({"trace.unattributed_ms" + Sfx,
                 tracedMedian(Rec, [](const LayerRound &L) {
                   return L.TimedMs - L.Trace.ExecutorSpanMs;
                 })});
  }
}

/// One row per unit (or per RowGroup, pooling its units) and arm: timing,
/// heap and the first round's counts. Then per unit the arms' ratios,
/// whether normal deoptimized at all (a program normal never deopts on
/// cannot show deoptless' benefit) and the continuation work per deoptless
/// hit.
std::string rows(const WorkloadRun &W) {
  std::vector<std::pair<std::string, std::vector<size_t>>> Groups;
  for (size_t U = 0; U < W.UnitNames.size(); ++U)
    if (W.RowGroup.empty())
      Groups.push_back({W.UnitNames[U], {U}});
    else if (U == 0)
      Groups.push_back({W.RowGroup, {U}});
    else
      Groups.back().second.push_back(U);

  std::string Out;
  auto row = [&](const std::string &Fields) {
    Out += std::string(Out.empty() ? "" : ", ") + "{" + Fields + "}";
  };
  printf("# %-24s %-9s %7s %9s %9s %9s %8s %9s %7s %7s %7s %10s\n", "unit",
         "arm", "samples", "typ_ms", "tail_ms", "raw_typ", "slowdown",
         "peak_kib", "deopts", "dl_hits", "dl_comp", "checks");
  for (const auto &G : Groups) {
    const std::string Unit = "\"unit\": \"" + G.first + "\"";
    double Counts[2][4] = {};
    for (int A = 0; A < 2; ++A) {
      const ArmRecord &Rec = W.ArmRecs[A];
      std::vector<double> Ms, ScaledMs, CalMs, Peak;
      auto append = [](std::vector<double> &To,
                       const std::vector<double> &From) {
        To.insert(To.end(), From.begin(), From.end());
      };
      for (size_t U : G.second) {
        append(Ms, Rec.UnitMs[U]);
        append(ScaledMs, Rec.UnitScaledMs[U]);
        append(CalMs, Rec.UnitCalMs[U]);
        append(Peak, Rec.UnitPeakKib[U]);
        const char *Names[4] = {"deopts", "deoptless_hits",
                                "deoptless_compiles", "assume_checks"};
        for (int K = 0; K < 4; ++K)
          Counts[A][K] += Rec.counter(U, Names[K]);
      }
      const double Typical = W.Typical(ScaledMs),
                   Tail = quantile(ScaledMs, W.TailQ),
                   RawTypical = W.Typical(Ms),
                   Slowdown = median(CalMs) / RefCalibrationMs,
                   PeakKib = median(Peak);
      const double *C = Counts[A];
      printf("# %-24s %-9s %7zu %9.4f %9.4f %9.4f %8.3f %9.2f %7.0f %7.0f "
             "%7.0f %10.0f\n",
             G.first.c_str(), Arms[A].Name, Ms.size(), Typical, Tail,
             RawTypical, Slowdown, PeakKib, C[0], C[1], C[2], C[3]);
      row(Unit + ", \"arm\": \"" + Arms[A].Name + "\", \"samples\": " +
          std::to_string(Ms.size()) + ", \"typical_ms\": " + jsonNum(Typical) +
          ", \"tail_ms\": " + jsonNum(Tail) + ", \"raw_typical_ms\": " +
          jsonNum(RawTypical) + ", \"slowdown\": " + jsonNum(Slowdown) +
          ", \"peak_heap_kib\": " + jsonNum(PeakKib) +
          ", \"deopts\": " + jsonNum(C[0]) + ", \"deoptless_hits\": " +
          jsonNum(C[1]) + ", \"deoptless_compiles\": " + jsonNum(C[2]) +
          ", \"assume_checks\": " + jsonNum(C[3]));
    }
    std::vector<double> TypicalRatio, TailRatio;
    for (size_t U : G.second) {
      double Typical, Tail;
      if (unitRatios(W, U, Typical, Tail)) {
        TypicalRatio.push_back(Typical);
        TailRatio.push_back(Tail);
      }
    }
    const double NormalDeopts = Counts[Normal][0];
    const double PerHit = safeDiv(Counts[Deoptless][3] - Counts[Normal][3],
                                  Counts[Deoptless][1]);
    printf("# %-24s speedup %.3fx, tail %.3fx%s, checks_per_dl_hit %.1f\n",
           G.first.c_str(), geomean(TypicalRatio), geomean(TailRatio),
           NormalDeopts ? "" : " (no-deopt)", PerHit);
    row(Unit + ", \"arm\": \"both\", \"speedup\": " +
        jsonNum(geomean(TypicalRatio)) + ", \"tail_speedup\": " +
        jsonNum(geomean(TailRatio)) + ", \"normal_deopts\": " +
        jsonNum(NormalDeopts) + ", \"no_deopt\": " +
        (NormalDeopts ? "false" : "true") + ", \"checks_per_dl_hit\": " +
        jsonNum(PerHit));
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  O.Workload = argStr(Argc, Argv, "--workload", "");
  O.Seed = std::strtoull(argStr(Argc, Argv, "--seed", "1"), nullptr, 10);
  O.Seconds = std::atof(argStr(Argc, Argv, "--seconds", "10"));
  O.Trace = argLong(Argc, Argv, "--trace", 0) != 0;

  if (O.Workload != "steady" && O.Workload != "misspec" &&
      O.Workload != "phases" && O.Workload != "server") {
    fprintf(stderr, "usage: deoptbench --workload "
                    "steady|misspec|phases|server --seed N --seconds S "
                    "--trace 0|1\n");
    return 2;
  }
  if (!inputsPinned(O.Workload))
    return 3;

  WorkloadRun W({});
  if (O.Workload == "steady")
    W = runBatch(O, /*Native=*/true, /*Rate=*/0);
  else if (O.Workload == "misspec")
    W = runBatch(O, /*Native=*/false, /*Rate=*/2000);
  else if (O.Workload == "phases")
    W = runPhases(O);
  else
    W = runServerWorkload(O);

  printf("# workload %s, seed %llu, %s pass (%s)\n", O.Workload.c_str(),
         static_cast<unsigned long long>(O.Seed),
         O.Trace ? "traced" : "end-to-end", W.Samples);
  if (KnownWrong)
    printf("# %llu wrong results from known VM bugs (not counted as "
           "failed)\n",
           static_cast<unsigned long long>(KnownWrong));
  std::string Rows = rows(W);
  MetricList M;
  if (O.Trace)
    perLayer(W, M);
  else
    endToEnd(W, M);

  std::string Json = "{\"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  for (size_t K = 0; K < M.size(); ++K)
    Json += std::string(K ? ", " : "") + "\"" + M[K].first +
            "\": " + jsonNum(M[K].second);
  Json += "}, \"rows\": [" + Rows + "]}";
  printf("%s\n", Json.c_str());
  return 0;
}
