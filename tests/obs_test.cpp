//===-- tests/obs_test.cpp - Observability layer unit tests ----------------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Covers the obs/ layer: TraceBuffer's write-once overflow discipline,
// LatencyHistogram bucket/percentile math, one version's lifecycle events
// across the full Fig. 1 cycle (create -> compile -> publish -> deopt ->
// reopt -> retire -> reclaim), the Chrome trace export's JSON
// well-formedness, and the README glossary against the .def lists.
//
// Tests that touch the process-wide tracer run in declaration order and
// clean up with traceReset(); the ring-capacity drop test records from a
// fresh thread so it never shrinks the main thread's ring.
//
//===----------------------------------------------------------------------===//

#include "obs/metrics.h"
#include "obs/trace.h"
#include "vm/vm.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

using namespace rjit;

//===----------------------------------------------------------------------===//
// TraceBuffer: overflow drops the newest event and counts the drop

TEST(TraceBuffer, OverflowDropsNewestAndCounts) {
  obs::TraceBuffer B(4);
  for (uint64_t K = 0; K < 7; ++K) {
    obs::TraceEvent E;
    E.Ts = 100 + K;
    E.A = K;
    E.Kind = obs::TraceEv::Publish;
    B.record(E);
  }
  EXPECT_EQ(B.count(), 4u);
  EXPECT_EQ(B.dropped(), 3u);
  // The *first* four events survive; overflow never overwrites a slot an
  // exporter may be reading.
  for (uint64_t K = 0; K < 4; ++K)
    EXPECT_EQ(B.at(K).A, K);
}

TEST(TraceBuffer, ResetZeroes) {
  obs::TraceBuffer B(2);
  obs::TraceEvent E;
  B.record(E);
  B.record(E);
  B.record(E);
  EXPECT_EQ(B.count(), 2u);
  EXPECT_EQ(B.dropped(), 1u);
  B.reset();
  EXPECT_EQ(B.count(), 0u);
  EXPECT_EQ(B.dropped(), 0u);
  B.record(E);
  EXPECT_EQ(B.count(), 1u);
}

//===----------------------------------------------------------------------===//
// LatencyHistogram: bucket math and quantiles

TEST(LatencyHistogram, BucketBoundsBracketEveryValue) {
  // bucketLowerBound(bucketOf(V)) <= V < bucketLowerBound(bucketOf(V)+1)
  // across the exact region, octave boundaries and large values.
  std::vector<uint64_t> Probe = {0, 1, 15, 16, 17, 23, 24, 31, 32, 100,
                                 1023, 1024, 1025, 999999, 1u << 30};
  Probe.push_back(uint64_t(1) << 40);
  Probe.push_back((uint64_t(1) << 40) + 12345);
  for (uint64_t V : Probe) {
    unsigned Idx = obs::LatencyHistogram::bucketOf(V);
    EXPECT_LE(obs::LatencyHistogram::bucketLowerBound(Idx), V) << V;
    EXPECT_GT(obs::LatencyHistogram::bucketLowerBound(Idx + 1), V) << V;
  }
}

TEST(LatencyHistogram, ExactBelowSixteen) {
  obs::LatencyHistogram H;
  for (uint64_t V = 0; V < 16; ++V)
    H.record(V);
  // Values below 16 get unit buckets: quantiles are exact.
  EXPECT_EQ(H.quantile(1.0 / 16.0), 0u);
  EXPECT_EQ(H.p50(), 7u);
  EXPECT_EQ(H.quantile(1.0), 15u);
  EXPECT_EQ(H.count(), 16u);
  EXPECT_EQ(H.max(), 15u);
  EXPECT_DOUBLE_EQ(H.mean(), 7.5);
}

TEST(LatencyHistogram, QuantilesWithinRelativeErrorBound) {
  obs::LatencyHistogram H;
  for (uint64_t V = 1; V <= 1000; ++V)
    H.record(V);
  // Reported quantile = bucket lower bound: never above the true value,
  // and within the 12.5% sub-bucket width below it.
  struct {
    double Q;
    uint64_t Exact;
  } Cases[] = {{0.50, 500}, {0.90, 900}, {0.99, 990}, {1.00, 1000}};
  for (const auto &C : Cases) {
    uint64_t R = H.quantile(C.Q);
    EXPECT_LE(R, C.Exact) << C.Q;
    EXPECT_GE(R, C.Exact - C.Exact / 8) << C.Q;
  }
  EXPECT_EQ(H.max(), 1000u);
}

TEST(LatencyHistogram, EmptyAndReset) {
  obs::LatencyHistogram H;
  EXPECT_EQ(H.p50(), 0u);
  EXPECT_EQ(H.count(), 0u);
  EXPECT_DOUBLE_EQ(H.mean(), 0.0);
  H.record(500);
  EXPECT_EQ(H.count(), 1u);
  EXPECT_GT(H.p99(), 0u);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.p99(), 0u);
}

TEST(LatencyHistogram, ConcurrentRecordingConservesCountsAndQuantiles) {
  // 8 threads record the same 1..1000 sweep simultaneously. Totals must
  // be conserved exactly (relaxed-atomic buckets, no lost increments) and
  // the quantiles must meet the same 12.5% documented bound as the
  // single-threaded case — concurrency must not degrade accuracy.
  obs::LatencyHistogram H;
  constexpr unsigned Threads = 8;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&H] {
      for (uint64_t V = 1; V <= 1000; ++V)
        H.record(V);
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(H.count(), Threads * 1000u);
  EXPECT_EQ(H.max(), 1000u);
  struct {
    double Q;
    uint64_t Exact;
  } Cases[] = {{0.50, 500}, {0.99, 990}, {0.999, 999}};
  for (const auto &C : Cases) {
    uint64_t R = H.quantile(C.Q);
    EXPECT_LE(R, C.Exact) << C.Q;
    EXPECT_GE(R, C.Exact - C.Exact / 8) << C.Q;
  }
}

TEST(LatencyHistogram, DrainUnderConcurrentRecordingLosesNothing) {
  // The per-phase reporting primitive: while 4 threads record a known
  // total, a drainer repeatedly empties the histogram. Every sample must
  // land in exactly one drain (or the final sweep) — the copy-then-reset
  // alternative loses the samples recorded between its two steps. The
  // recorders pause halfway until the drainer has taken a non-empty
  // drain, so at least one drain overlaps recording however the threads
  // are scheduled.
  obs::LatencyHistogram H;
  constexpr unsigned Threads = 4;
  constexpr uint64_t PerThread = 20000;
  std::atomic<unsigned> Live{Threads};
  std::atomic<bool> Drained1{false};
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      for (uint64_t V = 1; V <= PerThread; ++V) {
        if (V == PerThread / 2)
          while (!Drained1.load())
            std::this_thread::yield();
        H.record(V % 997 + 1);
      }
      --Live;
    });
  uint64_t Drained = 0, DrainedSum = 0;
  while (Live.load() > 0) {
    obs::LatencyHistogram D = H.drain();
    Drained += D.count();
    DrainedSum += static_cast<uint64_t>(D.mean() * double(D.count()) + 0.5);
    if (D.count())
      Drained1.store(true);
  }
  for (std::thread &T : Ts)
    T.join();
  obs::LatencyHistogram Last = H.drain();
  Drained += Last.count();
  EXPECT_EQ(Drained, Threads * PerThread)
      << "every concurrent record must land in exactly one drain";
  EXPECT_EQ(H.count(), 0u) << "the final drain left the histogram empty";
  EXPECT_GT(DrainedSum, 0u);
}

TEST(VmMetrics, DrainConservesEveryHistogram) {
  // Same conservation property for a whole VmMetrics: drains during
  // concurrent recording plus one final drain see exactly the recorded
  // total, for every histogram. No thread here has a Vm, so all of them
  // record into the process default context's metrics().
  (void)obs::metrics().drain(); // discard leftovers
  constexpr unsigned Threads = 4;
  constexpr uint64_t PerThread = 5000;
  std::atomic<unsigned> Live{Threads};
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      for (uint64_t V = 1; V <= PerThread; ++V) {
        obs::metrics().Iteration.record(V);
        obs::metrics().DeoptPause.record(V * 3);
      }
      --Live;
    });
  uint64_t Iter = 0, Pause = 0;
  while (Live.load() > 0) {
    obs::VmMetrics M = obs::metrics().drain();
    Iter += M.Iteration.count();
    Pause += M.DeoptPause.count();
  }
  for (std::thread &T : Ts)
    T.join();
  obs::VmMetrics M = obs::metrics().drain();
  Iter += M.Iteration.count();
  Pause += M.DeoptPause.count();
  EXPECT_EQ(Iter, Threads * PerThread);
  EXPECT_EQ(Pause, Threads * PerThread);
  EXPECT_EQ(obs::metrics().Iteration.count(), 0u);
}

//===----------------------------------------------------------------------===//
// Process tracer + version lifecycle events (declaration order matters
// below: these tests share the process-wide rings)

namespace {

Vm::Config tracedConfig() {
  Vm::Config C;
  C.Strategy = TierStrategy::Normal;
  C.CompileThreshold = 2;
  C.Trace.Enabled = true;
  return C;
}

/// Warm a vector kernel on ints (compile + publish), switch the element
/// type to double (deopt), re-warm (reopt), then tear the Vm down
/// (retire + reclaim).
/// Runs a Fig. 1 deopt cycle in a traced Vm; returns the Vm's histograms.
obs::VmMetrics runDeoptCycle() {
  Vm V(tracedConfig());
  V.eval("f <- function(v, n) { s <- 0\n"
         "  for (i in 1:n) s <- s + v[[i]]\n"
         "  s }");
  V.eval("d <- 1:100");
  for (int K = 0; K < 6; ++K)
    V.eval("r <- f(d, 100L)");
  V.eval("d <- as.numeric(1:100)");
  for (int K = 0; K < 6; ++K)
    V.eval("r <- f(d, 100L)");
  return obs::metrics();
}

/// True for the seven kinds that record a code-table entry's transitions
/// with its id in A (compile only for whole-function code: OSR-in and
/// continuation compiles carry their bc pc).
bool isLifecycleEvent(const obs::TraceEvent &E) {
  switch (E.Kind) {
  case obs::TraceEv::CompileFinish:
    return E.B == static_cast<uint64_t>(CompileKind::Function);
  case obs::TraceEv::Publish:
  case obs::TraceEv::VersionCreate:
  case obs::TraceEv::VersionDeopt:
  case obs::TraceEv::VersionBlacklist:
  case obs::TraceEv::Retire:
  case obs::TraceEv::Reclaim:
    return true;
  default:
    return false;
  }
}

/// The lifecycle events of every version id, in recording order.
std::map<uint64_t, std::vector<obs::TraceEvent>> versionTimelines() {
  std::map<uint64_t, std::vector<obs::TraceEvent>> T;
  for (const obs::TraceEvent &E : obs::traceEvents())
    if (isLifecycleEvent(E))
      T[E.A].push_back(E);
  return T;
}

int indexOf(const std::vector<obs::TraceEvent> &T, obs::TraceEv K,
            size_t From) {
  for (size_t I = From; I < T.size(); ++I)
    if (T[I].Kind == K)
      return static_cast<int>(I);
  return -1;
}

std::string kindName(obs::TraceEv K) {
  static const char *Names[] = {
#define TRACE_EV(Kind, Name, Cat) Name,
#include "obs/trace.def"
  };
  return Names[static_cast<size_t>(K)];
}

/// Minimal JSON syntax checker: enough to reject unbalanced structure,
/// bad literals and trailing commas in the exporter's output.
bool validJson(const std::string &S, size_t &Pos);

bool skipWs(const std::string &S, size_t &Pos) {
  while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
    ++Pos;
  return Pos < S.size();
}

bool validString(const std::string &S, size_t &Pos) {
  if (S[Pos] != '"')
    return false;
  for (++Pos; Pos < S.size(); ++Pos) {
    if (S[Pos] == '\\')
      ++Pos;
    else if (S[Pos] == '"') {
      ++Pos;
      return true;
    }
  }
  return false;
}

bool validNumber(const std::string &S, size_t &Pos) {
  size_t Start = Pos;
  if (Pos < S.size() && S[Pos] == '-')
    ++Pos;
  while (Pos < S.size() &&
         (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
          S[Pos] == '.' || S[Pos] == 'e' || S[Pos] == 'E' ||
          S[Pos] == '+' || S[Pos] == '-'))
    ++Pos;
  return Pos > Start;
}

bool validJson(const std::string &S, size_t &Pos) {
  if (!skipWs(S, Pos))
    return false;
  char C = S[Pos];
  if (C == '{') {
    ++Pos;
    if (!skipWs(S, Pos))
      return false;
    if (S[Pos] == '}')
      return ++Pos, true;
    while (true) {
      if (!skipWs(S, Pos) || !validString(S, Pos) || !skipWs(S, Pos) ||
          S[Pos] != ':')
        return false;
      ++Pos;
      if (!validJson(S, Pos) || !skipWs(S, Pos))
        return false;
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      return S[Pos] == '}' ? (++Pos, true) : false;
    }
  }
  if (C == '[') {
    ++Pos;
    if (!skipWs(S, Pos))
      return false;
    if (S[Pos] == ']')
      return ++Pos, true;
    while (true) {
      if (!validJson(S, Pos) || !skipWs(S, Pos))
        return false;
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      return S[Pos] == ']' ? (++Pos, true) : false;
    }
  }
  if (C == '"')
    return validString(S, Pos);
  if (S.compare(Pos, 4, "true") == 0)
    return Pos += 4, true;
  if (S.compare(Pos, 5, "false") == 0)
    return Pos += 5, true;
  if (S.compare(Pos, 4, "null") == 0)
    return Pos += 4, true;
  return validNumber(S, Pos);
}

bool validJsonDoc(const std::string &S) {
  size_t Pos = 0;
  if (!validJson(S, Pos))
    return false;
  skipWs(S, Pos);
  return Pos == S.size();
}

} // namespace

TEST(JsonChecker, SanityOnItself) {
  EXPECT_TRUE(validJsonDoc("{\"a\": [1, 2.5, -3e4], \"b\": \"x\\\"y\"}"));
  EXPECT_TRUE(validJsonDoc("{}"));
  EXPECT_FALSE(validJsonDoc("{\"a\": [1,]}"));
  EXPECT_FALSE(validJsonDoc("{\"a\": 1"));
  EXPECT_FALSE(validJsonDoc("{\"a\" 1}"));
  EXPECT_FALSE(validJsonDoc("{\"a\": 1} trailing"));
}

TEST(Tracing, OffByDefaultAndInert) {
  ASSERT_FALSE(obs::traceOn());
  uint64_t Before = obs::traceEventCount();
  Vm::Config C;
  C.Strategy = TierStrategy::Normal;
  C.CompileThreshold = 2;
  ASSERT_FALSE(C.Trace.Enabled) << "RJIT_TRACE must be unset in tests";
  {
    Vm V(C);
    V.eval("g <- function(x) x + 1");
    for (int K = 0; K < 5; ++K)
      V.eval("g(3L)");
  }
  EXPECT_EQ(obs::traceEventCount(), Before);
}

TEST(Lifecycle, FullDeoptCycleOnOneVersionId) {
  obs::traceBegin();
  obs::traceReset();
  obs::traceEnd();

  obs::VmMetrics M = runDeoptCycle();

  // One version id must carry the whole Fig. 1 story: created, compiled,
  // published, deopted, then a *re*-publication after the deopt, and
  // finally retire + reclaim of the superseded code — mid-run at the
  // dispatch-boundary safepoint once the retire epoch drains (teardown
  // is only the fallback; ReclaimFiresMidRunBeforeTeardown below pins
  // which of the two it is).
  std::map<uint64_t, std::vector<obs::TraceEvent>> Timelines =
      versionTimelines();
  bool FoundCycle = false;
  for (const auto &[Id, T] : Timelines) {
    int Created = indexOf(T, obs::TraceEv::VersionCreate, 0);
    if (Created < 0)
      continue;
    int Compiled = indexOf(T, obs::TraceEv::CompileFinish, Created + 1);
    if (Compiled < 0)
      continue;
    int Published = indexOf(T, obs::TraceEv::Publish, Compiled + 1);
    if (Published < 0)
      continue;
    int Deopted = indexOf(T, obs::TraceEv::VersionDeopt, Published + 1);
    if (Deopted < 0)
      continue;
    int Reopt = indexOf(T, obs::TraceEv::Publish, Deopted + 1);
    // The stale code is withdrawn *before* the deopt is charged (the
    // guard failure retires the version, then the deopt materializes
    // frames), so the retire sits between the first publication and the
    // re-publication.
    int Retired = indexOf(T, obs::TraceEv::Retire, Published + 1);
    int Reclaimed = indexOf(T, obs::TraceEv::Reclaim, Deopted + 1);
    if (Reopt >= 0 && Retired >= 0 && Reclaimed >= 0) {
      FoundCycle = true;
      // Created once; timestamps are monotone along the timeline.
      EXPECT_EQ(indexOf(T, obs::TraceEv::VersionCreate, Created + 1), -1);
      for (size_t K = 1; K < T.size(); ++K)
        EXPECT_GE(T[K].Ts, T[K - 1].Ts);
      break;
    }
  }
  if (!FoundCycle) {
    std::ostringstream Dump;
    for (const auto &[Id, T] : Timelines) {
      Dump << "id " << Id << ":";
      for (const obs::TraceEvent &E : T)
        Dump << " " << kindName(E.Kind);
      Dump << "\n";
    }
    ADD_FAILURE() << "no version timeline shows create -> compile -> "
                     "publish -> deopt -> republish -> retire -> reclaim\n"
                  << Dump.str();
  }

  // The event stream saw the same story.
  EXPECT_GT(obs::traceCountOf(obs::TraceEv::CompileFinish), 0u);
  EXPECT_GT(obs::traceCountOf(obs::TraceEv::Publish), 0u);
  EXPECT_GT(obs::traceCountOf(obs::TraceEv::Deopt), 0u);
  EXPECT_GT(obs::traceCountOf(obs::TraceEv::Retire), 0u);
  EXPECT_GT(obs::traceCountOf(obs::TraceEv::Reclaim), 0u);

  // And the always-on histograms measured the pauses.
  EXPECT_GT(M.CompileLatency.count(), 0u);
  EXPECT_GT(M.DeoptPause.count(), 0u);
}

TEST(Lifecycle, ReclaimFiresMidRunBeforeTeardown) {
  obs::traceBegin();
  obs::traceReset();
  obs::traceEnd();

  // A mid-run reopt cycle: warm on ints, deopt on the double phase
  // (retire), then keep dispatching. The dispatch-boundary safepoint must
  // reclaim the retired executable while the Vm is still running: a
  // Reclaim event carrying the version's id has to be observable *before*
  // teardown.
  uint64_t ReclaimsWhileAlive = 0;
  bool VersionReclaimedWhileAlive = false;
  {
    Vm V(tracedConfig());
    V.eval("f <- function(v, n) { s <- 0\n"
           "  for (i in 1:n) s <- s + v[[i]]\n"
           "  s }");
    V.eval("d <- 1:100");
    for (int K = 0; K < 6; ++K)
      V.eval("r <- f(d, 100L)");
    V.eval("d <- as.numeric(1:100)");
    for (int K = 0; K < 6; ++K)
      V.eval("r <- f(d, 100L)");
    ReclaimsWhileAlive = obs::traceCountOf(obs::TraceEv::Reclaim);
    for (const auto &[Id, T] : versionTimelines())
      if (Id && indexOf(T, obs::TraceEv::Reclaim, 0) >= 0)
        VersionReclaimedWhileAlive = true;
  }
  EXPECT_GT(ReclaimsWhileAlive, 0u)
      << "the safepoint must reclaim drained graveyard entries mid-run, "
         "not leave them all for teardown";
  EXPECT_TRUE(VersionReclaimedWhileAlive)
      << "a version's reclaim must be recorded while the Vm is alive";
}

TEST(Lifecycle, BlacklistIsOneEventAfterTheDeoptBudget) {
  obs::traceBegin();
  obs::traceReset();
  obs::traceEnd();

  // Injected guard failures deopt the version over and over: each deopt
  // retires it and the re-warmed function recompiles into the same entry,
  // until the entry's DeoptBlacklist-th deopt exhausts its budget. The
  // version is blacklisted once, after that deopt, and later calls run
  // the baseline.
  Vm::Config C = tracedConfig();
  C.InvalidationRate = 2; // ~2.5 calls per deopt cycle
  {
    Vm V(C);
    V.eval("f <- function(v, n) { s <- 0L\n"
           "  for (i in 1:n) s <- s + v[[i]]\n"
           "  s }");
    V.eval("d <- 1:100");
    for (uint32_t K = 0; K < 4 * DeoptBlacklist; ++K)
      EXPECT_EQ(V.eval("f(d, 100L)").toInt(), 5050);
  }
  size_t Blacklisted = 0;
  for (const auto &[Id, T] : versionTimelines()) {
    int At = indexOf(T, obs::TraceEv::VersionBlacklist, 0);
    if (At < 0)
      continue;
    ++Blacklisted;
    EXPECT_EQ(indexOf(T, obs::TraceEv::VersionBlacklist, At + 1), -1)
        << "id " << Id;
    int Deopts = 0;
    for (int K = 0; K < At; ++K)
      Deopts += T[K].Kind == obs::TraceEv::VersionDeopt;
    EXPECT_EQ(Deopts, static_cast<int>(DeoptBlacklist)) << "id " << Id;
  }
  EXPECT_EQ(Blacklisted, 1u);
}

TEST(Lifecycle, OsrInEntryKeepsItsIdAcrossRetireAndRepublish) {
  obs::traceBegin();
  obs::traceReset();
  obs::traceEnd();

  // OSR-in code is a code-table entry like a version: a real guard failure
  // (a logical where the code speculates on an int) retires its code, and
  // the next hot backedge republishes into the same entry, so one id
  // carries create, publish, retire, publish again and reclaim.
  Vm::Config C = tracedConfig();
  C.CompileThreshold = 1000000; // OSR-in only
  C.OsrThreshold = 50;
  uint64_t Id = 0;
  {
    Vm V(C);
    V.eval("f <- function(a, n) { s <- 0L\n"
           "  for (i in 1:n) s <- s + a[[i]]\n"
           "  s }");
    V.eval("a <- list(1L)\nfor (k in 2:200) a[[k]] <- k");
    EXPECT_EQ(V.eval("f(a, 200L)").toInt(), 20100);
    V.eval("a[[200]] <- TRUE");
    EXPECT_EQ(V.eval("f(a, 200L)").toInt(), 19901);
    EXPECT_EQ(V.eval("f(a, 200L)").toInt(), 19901);
    CodeTable<OsrKey> &Osr = V.stateFor(V.eval("f").closObj()->Fn).Osr;
    ASSERT_EQ(Osr.size(), 1u);
    Id = Osr.entries()[0]->ObsId;
  }
  std::vector<obs::TraceEvent> T = versionTimelines()[Id];
  int Created = indexOf(T, obs::TraceEv::VersionCreate, 0);
  ASSERT_GE(Created, 0);
  EXPECT_EQ(T[Created].B, static_cast<uint64_t>(CompileKind::OsrIn));
  int Published = indexOf(T, obs::TraceEv::Publish, Created + 1);
  int Retired = indexOf(T, obs::TraceEv::Retire, Published + 1);
  int Republished = indexOf(T, obs::TraceEv::Publish, Retired + 1);
  ASSERT_GE(Published, 0);
  EXPECT_EQ(T[Published].B, static_cast<uint64_t>(CompileKind::OsrIn));
  EXPECT_GT(Retired, Published);
  EXPECT_GT(Republished, Retired);
  EXPECT_GT(indexOf(T, obs::TraceEv::Reclaim, Retired + 1), Retired);
}

// Suite name ordering matters: gtest runs suites in first-registration
// order, so TraceExport (and TraceRing below) run after Lifecycle —
// the export test reads the rings the lifecycle workload filled.
TEST(TraceExport, ChromeExportIsValidJson) {
  // Rings still hold the previous test's events; export and check.
  std::ostringstream Os;
  obs::exportChromeTrace(Os);
  std::string S = Os.str();
  ASSERT_FALSE(S.empty());
  EXPECT_TRUE(validJsonDoc(S)) << S.substr(0, 400);
  EXPECT_NE(S.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(S.find("\"compile\""), std::string::npos);
  EXPECT_NE(S.find("\"deopt\""), std::string::npos);

  std::ostringstream Sum;
  obs::traceSummary(Sum);
  EXPECT_NE(Sum.str().find("deopt"), std::string::npos);

  obs::traceBegin();
  obs::traceReset();
  obs::traceEnd();
  EXPECT_EQ(obs::traceEventCount(), 0u);
  EXPECT_TRUE(obs::traceEvents().empty());
}

TEST(TraceRing, RingOverflowCountsDropsEndToEnd) {
  // A fresh thread gets a ring of the capacity configured here; the main
  // thread's (already-created, default-sized) ring is untouched.
  obs::traceBegin(8);
  std::thread([] {
    for (int K = 0; K < 50; ++K)
      obs::traceEvent(obs::TraceEv::GuardFail, 0, K, 0);
  }).join();
  EXPECT_EQ(obs::traceCountOf(obs::TraceEv::GuardFail), 8u);
  EXPECT_GE(obs::traceDropped(), 42u);
  obs::traceEnd();

  // Restore the default capacity for buffers created after this test and
  // clear the rings.
  obs::traceBegin(1 << 16);
  obs::traceReset();
  obs::traceEnd();
}

TEST(TraceRing, BeginBuildsTheCallingThreadsRing) {
  // traceBegin builds the calling thread's ring with the capacity it
  // configures, so the ring's zero-fill never lands between the thread's
  // first timestamp and its record. A later traceBegin's capacity only
  // applies to rings built after it.
  std::thread([] {
    obs::traceBegin(8);
    obs::traceBegin(1 << 16);
    for (int K = 0; K < 50; ++K)
      obs::traceEvent(obs::TraceEv::GuardFail, 0, K, 0);
    obs::traceEnd();
    obs::traceEnd();
  }).join();
  EXPECT_EQ(obs::traceCountOf(obs::TraceEv::GuardFail), 8u);
  EXPECT_GE(obs::traceDropped(), 42u);

  obs::traceBegin();
  obs::traceReset();
  obs::traceEnd();
}

//===----------------------------------------------------------------------===//
// README glossary: every counter, gauge, histogram and trace event the .def
// lists declare has a row

TEST(Glossary, ReadmeHasARowForEveryObservable) {
  std::ifstream In(RJIT_README_PATH);
  ASSERT_TRUE(In) << "cannot read " << RJIT_README_PATH;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  const std::string Readme = Buf.str();
  const char *Names[] = {
#define VM_COUNTER(Member, Name) Name,
#define VM_GAUGE(Member, Name) Name,
#include "support/stats.def"
#define VM_HISTOGRAM(Member, Name) Name,
#include "obs/metrics.def"
#define TRACE_EV(Kind, Name, Cat) Name,
#include "obs/trace.def"
  };
  for (const char *Name : Names)
    EXPECT_NE(Readme.find("| `" + std::string(Name) + "` |"),
              std::string::npos)
        << "README.md has no glossary row for `" << Name << "`";

  // And back: every row of the table under **Glossary.** names a declared
  // observable, so a row cannot outlive its declaration.
  const std::set<std::string> Declared(std::begin(Names), std::end(Names));
  size_t At = Readme.find("**Glossary.**");
  ASSERT_NE(At, std::string::npos) << "README.md has no **Glossary.**";
  std::istringstream Lines(Readme.substr(At));
  std::string Line;
  bool InTable = false;
  unsigned Rows = 0;
  while (std::getline(Lines, Line)) {
    if (Line.rfind('|', 0) != 0) {
      if (InTable)
        break; // the table ended
      continue;
    }
    InTable = true;
    if (Line.rfind("| `", 0) != 0)
      continue; // header and separator
    std::string Name = Line.substr(3, Line.find('`', 3) - 3);
    ++Rows;
    EXPECT_TRUE(Declared.count(Name))
        << "README.md glossary row `" << Name
        << "` names no declared counter, gauge, histogram or trace event";
  }
  EXPECT_GT(Rows, 0u) << "no glossary rows found under **Glossary.**";
}
