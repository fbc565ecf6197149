//===-- bench/server_harness.h - Request-driven server harness ---*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reusable closed-loop traffic generator + chaos injector for the
/// many-executor serving scenario: N client threads, each driving its own
/// Vm over a seeded mixed query workload (volcano-style aggregations from
/// the fig04/fig10 kernel family), all sharing one CompilerPool. The run
/// is phased — cold-start warmup, steady state, a *deopt storm* (injected
/// invalidation of hot versions mid-traffic), recovery — and every
/// request's latency lands in a per-phase log-bucketed histogram. At each
/// phase boundary, with every client parked, the harness takes each
/// client Vm's counters and drains its duration metrics (deopt_pause_ns,
/// queue_wait_ns, ...) losslessly (VmMetrics::drain).
///
/// Deoptless's headline claim is *tail latency*: recompilation pauses and
/// deopt storms are what it removes, and single-threaded steady-state
/// throughput benches cannot see that. This harness measures p50/p99/p999
/// per phase so `fig_server` can gate "deoptless-on beats deoptless-off on
/// storm-phase p99" in its exit code, and doubles as the deterministic
/// many-executor chaos test in tests/server_test.cpp: with the wall-clock
/// chaos injector off, every request, injection point and result is a
/// pure function of (Seed, client id, request index), so per-client result
/// checksums must be byte-identical across backends, strategies and
/// safepoint intervals.
///
/// Storm injection has two independent knobs:
///  * InjectEveryRequests — each client arms one injected invalidation
///    (Vm::injectInvalidation on its own Vm) every Nth of its storm-phase
///    requests. Request-count-driven: deterministic, machine-independent.
///  * ChaosIntervalUs — a dedicated chaos thread walks every client Vm and
///    injects at this wall-clock rate, *from outside the executors*. This
///    is the rate-driven half: nondeterministic in timing but — by the
///    §5.1 invariant — never in results.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_BENCH_SERVER_HARNESS_H
#define RJIT_BENCH_SERVER_HARNESS_H

#include "obs/metrics.h"
#include "support/stats.h"
#include "vm/vm.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace rjit::suite {

/// The four phases of a server run, in execution order.
enum class ServerPhase : unsigned { Warmup, Steady, Storm, Recovery };
constexpr unsigned NumServerPhases = 4;
const char *serverPhaseName(ServerPhase P);
const char *serverPhaseName(unsigned P);

struct ServerConfig {
  unsigned Clients = 8;         ///< executor threads, one Vm each
  unsigned CompilerThreads = 2; ///< shared background-compile pool size
  uint64_t Seed = 12345;        ///< workload + injection schedule seed

  /// Closed-loop requests per client in each phase.
  unsigned WarmupRequests = 50;
  unsigned SteadyRequests = 200;
  unsigned StormRequests = 200;
  unsigned RecoveryRequests = 150;

  /// Deterministic storm injection: every Nth storm-phase request of each
  /// client arms one injected invalidation on that client's Vm (0 = off).
  unsigned InjectEveryRequests = 6;
  /// Rate-driven storm injection: a chaos thread injects into every
  /// client Vm each interval, concurrently with dispatch (0 = off).
  /// Turning this on makes the run nondeterministic in *timing* only.
  unsigned ChaosIntervalUs = 0;

  /// Base Vm configuration (Strategy, NativeTier, HeapGc, ...).
  /// The harness points every client at the shared pool, which it owns;
  /// everything else is taken as given.
  Vm::Config Base;

  /// Also collect raw per-request seconds per phase (memory ~ one double
  /// per request; the histograms are always recorded).
  bool CollectTimes = false;
};

/// One phase's measurements, aggregated across all clients.
struct ServerPhaseReport {
  obs::LatencyHistogram Latency; ///< per-request wall time, nanoseconds
  VmStats Stats;                 ///< counter deltas over the phase, summed
  /// Each client Vm's counter deltas over the phase, in client-id order.
  std::vector<VmStats> ClientStats;
  obs::VmMetrics Metrics; ///< every client's histograms, drained and merged
  std::vector<double> Times;     ///< raw seconds (CollectTimes only)
  /// Process heap high-water over the phase and the live bytes left when
  /// it ended, read at the quiescent phase boundaries (the peak gauge is
  /// reset at each phase start). The q_churn mix entry strands reference
  /// cycles on every request, so a bounded high-water across
  /// storm->recovery is direct evidence the safepoint cycle collector is
  /// keeping up under concurrent traffic.
  uint64_t HeapPeakBytes = 0;
  uint64_t HeapLiveBytes = 0;
};

struct ServerResult {
  std::array<ServerPhaseReport, NumServerPhases> Phases;
  /// FNV-1a over every request result (its printed value), per client in
  /// client-id order. With ChaosIntervalUs == 0 these are a pure function
  /// of (Seed, client id) — the determinism surface tests/server_test.cpp
  /// gates; with the chaos thread on they must *still* match, because
  /// injected invalidation never changes results.
  std::vector<uint64_t> ClientChecksums;
  uint64_t Checksum = 0; ///< order-preserving fold of ClientChecksums
  uint64_t TotalRequests = 0;

  const ServerPhaseReport &phase(ServerPhase P) const {
    return Phases[static_cast<unsigned>(P)];
  }
};

/// Runs the full phased traffic session and returns the per-phase report.
/// Blocks until every client thread (and the chaos injector, if enabled)
/// has finished and joined.
ServerResult runServer(const ServerConfig &C);

} // namespace rjit::suite

#endif // RJIT_BENCH_SERVER_HARNESS_H
