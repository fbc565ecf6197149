//===-- tests/server_test.cpp - Multi-Vm server harness chaos tests --------===//
//
// The deterministic small-scale twin of bench/fig_server.cpp: the same
// server harness (N client threads, one Vm each, shared compiler pool,
// warmup/steady/storm/recovery phases with injected invalidation) run at
// a fixed seed and asserted on, not timed. The determinism surface: with
// the wall-clock chaos injector off, every client's result checksum is a
// pure function of the seed, so it must be byte-identical across tier
// strategies, execution backends and safepoint intervals. With the chaos
// injector on, timing is nondeterministic but checksums must *still*
// match — injected invalidation never changes results (§5.1).
//
// The chaos variants scale up under RJIT_SOAK=1 (the nightly soak tier,
// see the `soak` ctest label).
//
//===----------------------------------------------------------------------===//

#include "server_harness.h"
#include "support/stats.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

using namespace rjit;
using namespace rjit::suite;

namespace {

/// 1 in the tier-1 run; RJIT_SOAK=1 multiplies the chaos-variant request
/// counts (nightly soak under sanitizers).
unsigned soakScale() {
  const char *S = std::getenv("RJIT_SOAK");
  return (S && *S && *S != '0') ? 4 : 1;
}

ServerConfig smallConfig(TierStrategy S) {
  ServerConfig C;
  C.Clients = 8;
  C.CompilerThreads = 2;
  C.Seed = 20260808;
  C.WarmupRequests = 10;
  C.SteadyRequests = 25;
  C.StormRequests = 30;
  C.RecoveryRequests = 15;
  C.InjectEveryRequests = 5;
  C.Base.Strategy = S;
  C.Base.CompileThreshold = 3;
  return C;
}

unsigned totalPerClient(const ServerConfig &C) {
  return C.WarmupRequests + C.SteadyRequests + C.StormRequests +
         C.RecoveryRequests;
}

} // namespace

//===----------------------------------------------------------------------===//
// Determinism: checksums are a pure function of the seed
//===----------------------------------------------------------------------===//

TEST(ServerDeterminism, RepeatRunIsIdentical) {
  ServerConfig C = smallConfig(TierStrategy::Deoptless);
  ServerResult A = runServer(C);
  ServerResult B = runServer(C);
  EXPECT_EQ(A.ClientChecksums, B.ClientChecksums)
      << "same seed, same config: the run must replay exactly";
  EXPECT_EQ(A.Checksum, B.Checksum);
}

TEST(ServerDeterminism, ChecksumsInvariantAcrossConfigurations) {
  ServerResult Ref = runServer(smallConfig(TierStrategy::Normal));
  ASSERT_EQ(Ref.ClientChecksums.size(), 8u);

  // {strategy} x {backend} x {heap collection}: none of these axes may
  // change a single request's result. NativeTier silently keeps the
  // interpreter on non-x86-64 hosts, which only strengthens the check.
  // The HeapGc axis is hair-trigger collection against no mid-run
  // collection at all; the reference run uses the default-threshold
  // collector, so all three GC cadences must agree.
  for (TierStrategy S :
       {TierStrategy::Normal, TierStrategy::Deoptless}) {
    for (bool Native : {false, true}) {
      for (bool Gc : {true, false}) {
        ServerConfig C = smallConfig(S);
        C.Base.NativeTier = Native;
        C.Base.HeapGc.Enabled = Gc;
        C.Base.HeapGc.ThresholdBytes = 16 * 1024;
        ServerResult R = runServer(C);
        EXPECT_EQ(R.ClientChecksums, Ref.ClientChecksums)
            << "strategy=" << static_cast<int>(S)
            << " native=" << Native << " gc=" << Gc;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Accounting: no request's latency is lost or double-counted
//===----------------------------------------------------------------------===//

TEST(ServerAccounting, EveryRequestLandsInExactlyOnePhaseHistogram) {
  ServerConfig C = smallConfig(TierStrategy::Deoptless);
  C.CollectTimes = true;
  ServerResult R = runServer(C);

  const unsigned PerPhase[NumServerPhases] = {
      C.WarmupRequests, C.SteadyRequests, C.StormRequests,
      C.RecoveryRequests};
  for (unsigned P = 0; P < NumServerPhases; ++P) {
    EXPECT_EQ(R.Phases[P].Latency.count(),
              static_cast<uint64_t>(C.Clients) * PerPhase[P])
        << serverPhaseName(P);
    EXPECT_EQ(R.Phases[P].Times.size(),
              static_cast<size_t>(C.Clients) * PerPhase[P])
        << serverPhaseName(P);
    EXPECT_GT(R.Phases[P].Latency.max(), 0u) << serverPhaseName(P);
  }
  EXPECT_EQ(R.TotalRequests,
            static_cast<uint64_t>(C.Clients) * totalPerClient(C));
}

//===----------------------------------------------------------------------===//
// The storm is live, and each strategy handles it its own way
//===----------------------------------------------------------------------===//

TEST(ServerStorm, NormalModeRetiresUnderInjection) {
  ServerResult R = runServer(smallConfig(TierStrategy::Normal));
  const VmStats &Storm = R.phase(ServerPhase::Storm).Stats;
  const VmStats &Recovery = R.phase(ServerPhase::Recovery).Stats;
  // Injections armed late in the storm may fire on a recovery-phase
  // request; the sum over both phases is what must be live.
  EXPECT_GT(Storm.InjectedFailures + Recovery.InjectedFailures, 0u)
      << "the storm phase must actually inject invalidations";
  EXPECT_GT(Storm.Deopts + Recovery.Deopts, 0u)
      << "under Normal, injected failures retire optimized versions";
}

TEST(ServerStorm, DeoptlessAbsorbsTheStorm) {
  ServerResult R = runServer(smallConfig(TierStrategy::Deoptless));
  const VmStats &Storm = R.phase(ServerPhase::Storm).Stats;
  const VmStats &Recovery = R.phase(ServerPhase::Recovery).Stats;
  EXPECT_GT(Storm.InjectedFailures + Recovery.InjectedFailures, 0u);
  // Attempts, not hits: continuations compile in the background here, so
  // under a slow build (sanitizers) none may publish within this short a
  // storm — every storm hit is *offered* to deoptless either way.
  EXPECT_GT(Storm.DeoptlessAttempts + Recovery.DeoptlessAttempts, 0u)
      << "under Deoptless, storm hits are dispatched to the deoptless "
         "machinery";
}

TEST(ServerStorm, QuietPhasesStayQuiet) {
  ServerResult R = runServer(smallConfig(TierStrategy::Normal));
  EXPECT_EQ(R.phase(ServerPhase::Steady).Stats.InjectedFailures, 0u)
      << "count-driven injection must be confined to the storm phase "
         "(steady runs before any arming)";
}

//===----------------------------------------------------------------------===//
// Chaos: wall-clock cross-thread injection changes timing, never results
//===----------------------------------------------------------------------===//

TEST(ServerChaos, WallClockInjectorPreservesResults) {
  unsigned Scale = soakScale();
  ServerConfig Quiet = smallConfig(TierStrategy::Deoptless);
  Quiet.StormRequests *= Scale;
  ServerResult Ref = runServer(Quiet);

  ServerConfig Chaotic = Quiet;
  Chaotic.ChaosIntervalUs = 100; // ~10kHz sweep over all 8 Vms
  ServerResult R = runServer(Chaotic);
  EXPECT_EQ(R.ClientChecksums, Ref.ClientChecksums)
      << "rate-driven injection may move latency, never results";
}

TEST(ServerChaos, NormalModeSurvivesChaos) {
  unsigned Scale = soakScale();
  ServerConfig Quiet = smallConfig(TierStrategy::Normal);
  Quiet.StormRequests *= Scale;
  ServerResult Ref = runServer(Quiet);

  ServerConfig Chaotic = Quiet;
  Chaotic.ChaosIntervalUs = 100;
  // The storm now both retires versions (Normal) and takes concurrent
  // injection from outside the executors — the worst case for torn
  // version reads. Results must be untouched.
  ServerResult R = runServer(Chaotic);
  EXPECT_EQ(R.ClientChecksums, Ref.ClientChecksums);
}

TEST(ServerChaos, HeapHighWaterBoundedUnderChurnStorm) {
  // The memory half of the soak: the q_churn mix entry strands one
  // Env<->closure cycle per mk() call on every client, so without the
  // safepoint cycle collector the heap high-water would grow linearly in
  // the (soak-scaled) request count. With a hair-trigger threshold the
  // storm and recovery peaks must stay within a small multiple of the
  // steady-phase peak — bounded live bytes across warmup -> storm ->
  // recovery — while chaos injection runs and checksums stay untouched.
  unsigned Scale = soakScale();
  ServerConfig Quiet = smallConfig(TierStrategy::Deoptless);
  Quiet.StormRequests *= Scale;
  Quiet.RecoveryRequests *= Scale;
  ServerResult Ref = runServer(Quiet);

  ServerConfig Chaotic = Quiet;
  Chaotic.ChaosIntervalUs = 100;
  Chaotic.Base.HeapGc.ThresholdBytes = 32 * 1024;
  ServerResult R = runServer(Chaotic);
  EXPECT_EQ(R.ClientChecksums, Ref.ClientChecksums)
      << "collection cadence may move memory, never results";

  uint64_t Collections = 0;
  for (unsigned P = 0; P < NumServerPhases; ++P)
    Collections += R.Phases[P].Stats.GcCollections.load();
  EXPECT_GT(Collections, 0u)
      << "the churn mix must trip the allocation threshold mid-run";

  uint64_t SteadyPeak = R.phase(ServerPhase::Steady).HeapPeakBytes;
  uint64_t StormPeak = R.phase(ServerPhase::Storm).HeapPeakBytes;
  uint64_t RecoveryPeak = R.phase(ServerPhase::Recovery).HeapPeakBytes;
  ASSERT_GT(SteadyPeak, 0u);
  // Generous slack (collection is per-Vm threshold-driven, and module
  // state still grows a little per request), but far below the linear
  // growth an uncollected cycle leak would show at soak scale.
  EXPECT_LE(StormPeak, 2 * SteadyPeak + (1u << 20))
      << "storm-phase heap high-water not bounded";
  EXPECT_LE(RecoveryPeak, 2 * SteadyPeak + (1u << 20))
      << "recovery-phase heap high-water not bounded";
}
