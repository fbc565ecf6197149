//===-- bench/fig_server.cpp - Server tail latency under deopt storms -----===//
//
// Part of the deoptless reproduction. MIT license.
//
// The tail-latency experiment the single-threaded fig benches cannot
// express: N closed-loop client threads drive a mixed query workload
// against per-thread Vms sharing one compiler pool, through four phases —
// cold-start warmup, steady state, a *deopt storm* (injected invalidation
// of hot versions mid-traffic, both request-count-driven and, by default,
// from a wall-clock chaos thread), and recovery. Per-request latency lands
// in per-phase histograms; the report compares Normal (deoptless off:
// every storm hit retires the version, re-warms and recompiles) against
// Deoptless (storm hits dispatch to retained continuations).
//
// The headline gate is the paper's central claim made operational: the
// process exits non-zero unless deoptless-on beats deoptless-off on
// storm-phase p99.
//
// Usage: fig_server [--clients N] [--compilers N] [--seed S]
//                   [--warmup N] [--steady N] [--storm N] [--recovery N]
//                   [--inject-every N] [--chaos-us N]
//                   [--json path] [--trace path]
//
//===----------------------------------------------------------------------===//

#include "server_harness.h"
#include "suite/harness.h"

#include <cstdio>
#include <string>

using namespace rjit;
using namespace rjit::suite;

namespace {

ServerConfig configFromArgs(int Argc, char **Argv) {
  ServerConfig SC;
  SC.Clients = static_cast<unsigned>(argLong(Argc, Argv, "--clients", 8));
  SC.CompilerThreads =
      static_cast<unsigned>(argLong(Argc, Argv, "--compilers", 2));
  SC.Seed = static_cast<uint64_t>(argLong(Argc, Argv, "--seed", 12345));
  SC.WarmupRequests =
      static_cast<unsigned>(argLong(Argc, Argv, "--warmup", 100));
  SC.SteadyRequests =
      static_cast<unsigned>(argLong(Argc, Argv, "--steady", 400));
  SC.StormRequests =
      static_cast<unsigned>(argLong(Argc, Argv, "--storm", 400));
  SC.RecoveryRequests =
      static_cast<unsigned>(argLong(Argc, Argv, "--recovery", 300));
  SC.InjectEveryRequests =
      static_cast<unsigned>(argLong(Argc, Argv, "--inject-every", 6));
  // The rate-driven half of the storm defaults on in the bench (off in
  // the deterministic test): both modes get the same wall-clock rate, and
  // results are injection-invariant, so only latency is affected.
  SC.ChaosIntervalUs =
      static_cast<unsigned>(argLong(Argc, Argv, "--chaos-us", 200));
  SC.Base.CompileThreshold = 3;
  return SC;
}

ServerResult serveMode(TierStrategy S, const ServerConfig &Base) {
  ServerConfig SC = Base;
  SC.Base.Strategy = S;
  return runServer(SC);
}

/// Publishes one phase of one mode as a Times-free series whose extras
/// block carries the histogram percentiles (per-request times would bloat
/// the JSON by several orders of magnitude).
void addPhases(BenchReport &R, const char *Mode, const ServerResult &SR) {
  for (unsigned P = 0; P < NumServerPhases; ++P) {
    const ServerPhaseReport &Ph = SR.Phases[P];
    BenchSeries &S = R.add(std::string(Mode) + "/" + serverPhaseName(P),
                           {}, Ph.Stats, Ph.Metrics);
    S.Clients = Ph.ClientStats;
    S.Extras.push_back(
        {"requests", static_cast<double>(Ph.Latency.count())});
    S.Extras.push_back({"p50_ns", static_cast<double>(Ph.Latency.p50())});
    S.Extras.push_back({"p90_ns", static_cast<double>(Ph.Latency.p90())});
    S.Extras.push_back({"p99_ns", static_cast<double>(Ph.Latency.p99())});
    S.Extras.push_back(
        {"p999_ns", static_cast<double>(Ph.Latency.p999())});
    S.Extras.push_back({"max_ns", static_cast<double>(Ph.Latency.max())});
    S.Extras.push_back({"mean_ns", Ph.Latency.mean()});
    // Heap pressure per phase: the q_churn mix entry strands reference
    // cycles on every request, so a bounded high-water across
    // storm->recovery shows the safepoint cycle collector keeping up.
    S.Extras.push_back(
        {"heap_peak_bytes", static_cast<double>(Ph.HeapPeakBytes)});
    S.Extras.push_back(
        {"heap_live_bytes", static_cast<double>(Ph.HeapLiveBytes)});
  }
}

void printMode(const char *Mode, const ServerResult &SR) {
  printf("%-10s %10s %12s %12s %12s %12s %12s\n", Mode, "requests",
         "p50", "p90", "p99", "p999", "max");
  for (unsigned P = 0; P < NumServerPhases; ++P) {
    const obs::LatencyHistogram &H = SR.Phases[P].Latency;
    printf("  %-8s %10llu %10.1fus %10.1fus %10.1fus %10.1fus %10.1fus\n",
           serverPhaseName(P), static_cast<unsigned long long>(H.count()),
           static_cast<double>(H.p50()) * 1e-3,
           static_cast<double>(H.p90()) * 1e-3,
           static_cast<double>(H.p99()) * 1e-3,
           static_cast<double>(H.p999()) * 1e-3,
           static_cast<double>(H.max()) * 1e-3);
    std::string Label = std::string(Mode) + "/" + serverPhaseName(P);
    printStats(Label.c_str(), SR.Phases[P].Stats);
    const std::vector<VmStats> &Clients = SR.Phases[P].ClientStats;
    for (size_t C = 0; C < Clients.size(); ++C)
      printStats((Label + "/client" + std::to_string(C)).c_str(),
                 Clients[C]);
  }
}

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  benchObsInit(Argc, Argv);
  ServerConfig SC = configFromArgs(Argc, Argv);

  BenchReport R;
  R.Name = "fig_server";
  R.Config = "clients=" + std::to_string(SC.Clients) +
             " compilers=" + std::to_string(SC.CompilerThreads) +
             " warmup=" + std::to_string(SC.WarmupRequests) +
             " steady=" + std::to_string(SC.SteadyRequests) +
             " storm=" + std::to_string(SC.StormRequests) +
             " recovery=" + std::to_string(SC.RecoveryRequests) +
             " inject_every=" + std::to_string(SC.InjectEveryRequests) +
             " chaos_us=" + std::to_string(SC.ChaosIntervalUs) +
             " seed=" + std::to_string(SC.Seed);

  printf("# fig_server — %u clients, shared %u-thread compiler pool, "
         "storm: 1-in-%u requests + chaos every %uus\n",
         SC.Clients, SC.CompilerThreads, SC.InjectEveryRequests,
         SC.ChaosIntervalUs);

  ServerResult Normal = serveMode(TierStrategy::Normal, SC);
  printMode("normal", Normal);
  addPhases(R, "normal", Normal);

  ServerResult Dl = serveMode(TierStrategy::Deoptless, SC);
  printMode("deoptless", Dl);
  addPhases(R, "deoptless", Dl);

  // Both modes ran the identical request schedule; their transcripts must
  // agree (injected invalidation never changes results). A mismatch is a
  // correctness bug, not a measurement artifact.
  if (Normal.Checksum != Dl.Checksum) {
    fprintf(stderr,
            "FAIL: result checksums diverge between modes "
            "(normal %016llx, deoptless %016llx)\n",
            static_cast<unsigned long long>(Normal.Checksum),
            static_cast<unsigned long long>(Dl.Checksum));
    return 2;
  }

  const obs::LatencyHistogram &NSteady =
      Normal.phase(ServerPhase::Steady).Latency;
  const obs::LatencyHistogram &NStorm =
      Normal.phase(ServerPhase::Storm).Latency;
  const obs::LatencyHistogram &DSteady =
      Dl.phase(ServerPhase::Steady).Latency;
  const obs::LatencyHistogram &DStorm =
      Dl.phase(ServerPhase::Storm).Latency;

  double StormP99Speedup = ratio(NStorm.p99(), DStorm.p99());
  double StormP999Speedup = ratio(NStorm.p999(), DStorm.p999());
  R.headline("speedup_storm_p99", StormP99Speedup);
  // Deliberately NOT a speedup_* key: p999 is a single log-bucket read at
  // the extreme tail (one recompile pause either side moves it by whole
  // octaves), far too noisy for the 20% compare gate. Reported for the
  // record, gated only by this bench's own exit code via p99.
  R.headline("storm_p999_ratio", StormP999Speedup);
  R.headline("p99_storm_over_steady_normal",
             ratio(NStorm.p99(), NSteady.p99()));
  R.headline("p99_storm_over_steady_deoptless",
             ratio(DStorm.p99(), DSteady.p99()));

  printf("\n# storm-phase tail: deoptless %.2fx better p99, %.2fx better "
         "p999\n",
         StormP99Speedup, StormP999Speedup);
  printf("# p99 storm amplification over steady: normal %.2fx, deoptless "
         "%.2fx\n",
         ratio(NStorm.p99(), NSteady.p99()),
         ratio(DStorm.p99(), DSteady.p99()));

  emitBenchArtifacts(R, Argc, Argv);

  // The gate: the paper's claim is that deoptless removes the tail, so a
  // run where deoptless-off has the better storm p99 is a regression.
  if (StormP99Speedup <= 1.0) {
    fprintf(stderr,
            "FAIL: deoptless did not beat normal on storm-phase p99 "
            "(speedup %.3f <= 1.0)\n",
            StormP99Speedup);
    return 1;
  }
  printf("# PASS: deoptless beats normal on storm-phase p99\n");
  return 0;
}
