//===-- bench/server_harness.cpp - Request-driven server harness ----------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "server_harness.h"

#include "compile/pool.h"
#include "runtime/value.h"
#include "support/fnv.h"
#include "support/rng.h"
#include "support/timer.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

using namespace rjit;
using namespace rjit::suite;

const char *rjit::suite::serverPhaseName(ServerPhase P) {
  return serverPhaseName(static_cast<unsigned>(P));
}

const char *rjit::suite::serverPhaseName(unsigned P) {
  static const char *const Names[NumServerPhases] = {"warmup", "steady",
                                                     "storm", "recovery"};
  return P < NumServerPhases ? Names[P] : "?";
}

namespace {

/// Reusable all-or-nothing rendezvous for Clients + 1 (the orchestrator)
/// participants. Clients park here between phases, which is what makes
/// the orchestrator's phase-boundary reads of their Vms' counters and
/// histograms quiescent.
class PhaseBarrier {
public:
  explicit PhaseBarrier(unsigned N) : Count(N) {}

  void arriveAndWait() {
    std::unique_lock<std::mutex> L(Mu);
    unsigned G = Gen;
    if (++Waiting == Count) {
      Waiting = 0;
      ++Gen;
      Cv.notify_all();
      return;
    }
    Cv.wait(L, [&] { return Gen != G; });
  }

private:
  std::mutex Mu;
  std::condition_variable Cv;
  const unsigned Count;
  unsigned Waiting = 0;
  unsigned Gen = 0;
};

/// The query service every client installs in its Vm: volcano-style
/// aggregations from the fig04/fig10 kernel family over shared data. The
/// int/real mix keeps type feedback honest (warmup sees real phase
/// changes, not just injection), while staying deterministic.
const char *ServerSetup = R"(
q_sum <- function(data) {
  total <- 0L
  for (i in 1:length(data)) total <- total + data[[i]]
  total
}
q_filter_sum <- function(data, lo) {
  total <- 0
  for (i in 1:length(data)) {
    x <- data[[i]]
    if (x > lo) total <- total + x
  }
  total
}
q_dot <- function(a, b) {
  total <- 0
  for (i in 1:length(a)) total <- total + a[[i]] * b[[i]]
  total
}
q_minmax <- function(data) {
  mn <- data[[1]]
  mx <- data[[1]]
  for (i in 1:length(data)) {
    x <- data[[i]]
    if (x < mn) mn <- x
    if (x > mx) mx <- x
  }
  mx - mn
}
q_churn <- function(n) {
  mk <- function(i) {
    h <- function(x) x + i
    h(i)
  }
  s <- 0L
  for (i in 1:n) s <- s + mk(i)
  s
}
ints <- 1:256
reals <- as.numeric(1:256) * 0.5
)";

/// The request mix, weighted by repetition. Drawing an index below() the
/// table size is the whole per-request decision, so the schedule is a
/// pure function of the client RNG stream.
const char *const RequestMix[] = {
    "q_sum(ints)",
    "q_sum(ints)",
    "q_sum(ints)",
    "q_sum(reals)",
    "q_sum(reals)",
    "q_filter_sum(reals, 64)",
    "q_dot(reals, ints)",
    "q_minmax(ints)",
    // Closure churn: every mk(i) call strands one Env<->closure reference
    // cycle that only the safepoint cycle collector can reclaim — the
    // memory-pressure half of the serving scenario.
    "q_churn(32L)",
};
constexpr size_t RequestMixSize =
    sizeof(RequestMix) / sizeof(RequestMix[0]);

void mixString(FnvHasher &H, const std::string &S) {
  for (char C : S)
    H.mix(static_cast<uint8_t>(C));
}

} // namespace

ServerResult rjit::suite::runServer(const ServerConfig &SC) {
  ServerResult R;
  R.ClientChecksums.assign(SC.Clients, 0);

  const unsigned PhaseRequests[NumServerPhases] = {
      SC.WarmupRequests, SC.SteadyRequests, SC.StormRequests,
      SC.RecoveryRequests};

  CompilerPool Pool(SC.CompilerThreads);
  PhaseBarrier Sync(SC.Clients + 1);
  std::vector<Vm *> Vms(SC.Clients, nullptr);
  std::vector<std::array<std::vector<double>, NumServerPhases>> RawTimes(
      SC.Clients);
  std::mutex ErrorsMu;
  std::vector<std::string> Errors;

  auto Client = [&](unsigned Id) {
    Vm::Config C = SC.Base;
    C.Pool = &Pool;
    Vm V(C);
    bool Broken = false;
    try {
      V.eval(ServerSetup);
    } catch (const std::exception &E) {
      std::lock_guard<std::mutex> L(ErrorsMu);
      Errors.push_back("client " + std::to_string(Id) +
                       " setup failed: " + E.what());
      Broken = true;
    }
    Vms[Id] = &V; // published to the chaos thread by the barrier below
    uint64_t ClientSeed =
        SC.Seed * 0x9E3779B97F4A7C15ull + (Id + 1) * 0x100000001B3ull;
    Rng Gen(ClientSeed ? ClientSeed : 1);
    FnvHasher Sum;
    Sync.arriveAndWait(); // ready: every client constructed and set up

    for (unsigned P = 0; P < NumServerPhases; ++P) {
      Sync.arriveAndWait(); // phase start
      for (unsigned K = 0; K < PhaseRequests[P] && !Broken; ++K) {
        if (P == static_cast<unsigned>(ServerPhase::Storm) &&
            SC.InjectEveryRequests && K % SC.InjectEveryRequests == 0)
          V.injectInvalidation();
        const char *Req = RequestMix[Gen.below(RequestMixSize)];
        try {
          Timer T;
          Value Res = V.eval(Req);
          uint64_t Ns = T.elapsedNanos();
          R.Phases[P].Latency.record(Ns);
          if (SC.CollectTimes)
            RawTimes[Id][P].push_back(static_cast<double>(Ns) * 1e-9);
          mixString(Sum, Res.show());
        } catch (const std::exception &E) {
          std::lock_guard<std::mutex> L(ErrorsMu);
          Errors.push_back("client " + std::to_string(Id) + " request '" +
                           Req + "' failed: " + E.what());
          Broken = true;
        }
      }
      Sync.arriveAndWait(); // phase end
    }
    R.ClientChecksums[Id] = Sum.H;
    Sync.arriveAndWait(); // the orchestrator has read this Vm's counters
  };

  std::vector<std::thread> Threads;
  Threads.reserve(SC.Clients);
  for (unsigned Id = 0; Id < SC.Clients; ++Id)
    Threads.emplace_back(Client, Id);

  Sync.arriveAndWait(); // ready
  // Attribution baseline: clients are parked at the first phase-start
  // barrier, so everything their Vms recorded before this point (setup
  // compiles) is discarded rather than charged to warmup.
  std::vector<VmStats> Prev(SC.Clients);
  for (unsigned Id = 0; Id < SC.Clients; ++Id) {
    Prev[Id] = Vms[Id]->context().Stats;
    (void)Vms[Id]->context().Metrics.drain();
  }

  std::thread Chaos;
  std::atomic<bool> ChaosStop{false};
  for (unsigned P = 0; P < NumServerPhases; ++P) {
    // Clients are parked at the phase-start barrier, so resetting the
    // heap high-water gauge here is quiescent: the phase's PeakBytes
    // measures only this phase's traffic.
    resetHeapPeak();
    Sync.arriveAndWait(); // phase start: clients begin issuing
    const bool StormPhase = P == static_cast<unsigned>(ServerPhase::Storm);
    if (StormPhase && SC.ChaosIntervalUs) {
      ChaosStop.store(false, std::memory_order_relaxed);
      Chaos = std::thread([&] {
        // The rate-driven injector: walks every executor's Vm from this
        // non-executor thread. Vm::injectInvalidation is the one Vm entry
        // point with that contract.
        while (!ChaosStop.load(std::memory_order_relaxed)) {
          for (Vm *V : Vms)
            V->injectInvalidation();
          std::this_thread::sleep_for(
              std::chrono::microseconds(SC.ChaosIntervalUs));
        }
      });
    }
    Sync.arriveAndWait(); // phase end: every client parked again
    if (Chaos.joinable()) {
      ChaosStop.store(true, std::memory_order_relaxed);
      Chaos.join();
    }
    ServerPhaseReport &Ph = R.Phases[P];
    for (unsigned Id = 0; Id < SC.Clients; ++Id) {
      ExecContext &C = Vms[Id]->context();
      VmStats Now = C.Stats;
      Ph.ClientStats.push_back(Now - Prev[Id]);
      Ph.Stats += Ph.ClientStats.back();
      Prev[Id] = Now;
      Ph.Metrics += C.Metrics.drain();
    }
    Ph.HeapPeakBytes = heapStats().PeakBytes.load();
    Ph.HeapLiveBytes = heapStats().LiveBytes.load();
  }
  Sync.arriveAndWait(); // release the clients to tear their Vms down

  for (std::thread &T : Threads)
    T.join();

  FnvHasher Combined;
  for (uint64_t C : R.ClientChecksums)
    Combined.mix(C);
  R.Checksum = Combined.H;
  for (unsigned P = 0; P < NumServerPhases; ++P) {
    R.TotalRequests += R.Phases[P].Latency.count();
    if (SC.CollectTimes)
      for (unsigned Id = 0; Id < SC.Clients; ++Id)
        R.Phases[P].Times.insert(R.Phases[P].Times.end(),
                                 RawTimes[Id][P].begin(),
                                 RawTimes[Id][P].end());
  }
  if (!Errors.empty()) {
    std::string All;
    for (const std::string &E : Errors)
      All += E + "\n";
    rerror("server harness: " + All);
  }
  return R;
}
