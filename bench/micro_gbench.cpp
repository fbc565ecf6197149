//===-- bench/micro_gbench.cpp - Micro ablations (google-benchmark) --------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Ablation microbenchmarks backing the design discussions of the paper:
//  * the tier gap (baseline interpreter vs optimized code) that makes
//    tiering down painful in the first place;
//  * speculative typed code vs generic optimized code (what a function
//    degrades to after an over-generalizing recompile);
//  * the cost of a true deoptimization vs a deoptless dispatch hit;
//  * OSR-in compilation + entry cost;
//  * guard overhead with speculation disabled (§4.1: explicit exits cost
//    code size, not peak performance);
//  * the cost of lowering optimized IR to LowCode, over every closure of
//    the main suite (BM_LowerSuite).
//
//===----------------------------------------------------------------------===//

#include "lowcode/lower.h"
#include "native/regalloc.h"
#include "opt/pipeline.h"
#include "suite/harness.h"
#include "support/stats.h"

#include <benchmark/benchmark.h>

using namespace rjit;
using namespace rjit::suite;

namespace {

constexpr long SumN = 50000;

const char *SumSetup = R"(
sum_data <- function(data) {
  total <- 0
  for (i in 1:length(data)) total <- total + data[[i]])";
// (closed below; split so the driver size is visible here)
const char *SumSetupTail = R"(
  total
}
)";

std::string sumSetup() { return std::string(SumSetup) + SumSetupTail; }

std::unique_ptr<Vm> makeVm(TierStrategy S, bool Speculate = true,
                           uint64_t InvalidationRate = 0) {
  Vm::Config C = benchConfig(S);
  C.Speculate = Speculate;
  C.InvalidationRate = InvalidationRate;
  auto V = std::make_unique<Vm>(C);
  V->eval(sumSetup());
  V->eval("data <- as.numeric(1:" + std::to_string(SumN) + ")");
  return V;
}

void warm(Vm &V, int N = 6) {
  for (int K = 0; K < N; ++K)
    V.eval("sum_data(data)");
}

void BM_BaselineInterpreter(benchmark::State &State) {
  Vm V(benchConfig(TierStrategy::BaselineOnly));
  V.eval(sumSetup());
  V.eval("data <- as.numeric(1:" + std::to_string(SumN) + ")");
  for (auto _ : State)
    benchmark::DoNotOptimize(V.eval("sum_data(data)"));
  State.SetItemsProcessed(State.iterations() * SumN);
}
BENCHMARK(BM_BaselineInterpreter);

void BM_OptimizedSpeculative(benchmark::State &State) {
  auto V = makeVm(TierStrategy::Normal);
  warm(*V);
  for (auto _ : State)
    benchmark::DoNotOptimize(V->eval("sum_data(data)"));
  State.SetItemsProcessed(State.iterations() * SumN);
}
BENCHMARK(BM_OptimizedSpeculative);

void BM_OptimizedGeneric(benchmark::State &State) {
  // Speculation disabled: the shape a function converges to after
  // over-generalizing recompiles.
  auto V = makeVm(TierStrategy::Normal, /*Speculate=*/false);
  warm(*V);
  for (auto _ : State)
    benchmark::DoNotOptimize(V->eval("sum_data(data)"));
  State.SetItemsProcessed(State.iterations() * SumN);
}
BENCHMARK(BM_OptimizedGeneric);

void BM_TrueDeoptimization(benchmark::State &State) {
  // Every iteration warms the function, then flips the data type to force
  // one deoptimization; measures the full OSR-out + interpreter-remainder
  // cost (amortized over one sum).
  auto V = makeVm(TierStrategy::Normal);
  warm(*V);
  V->eval("ints <- 1:1000");
  V->eval("reals <- as.numeric(1:1000)");
  for (auto _ : State) {
    State.PauseTiming();
    // Re-train on ints so the next real triggers a deopt.
    for (int K = 0; K < 6; ++K)
      V->eval("sum_data(ints)");
    State.ResumeTiming();
    benchmark::DoNotOptimize(V->eval("sum_data(reals)"));
  }
}
BENCHMARK(BM_TrueDeoptimization)->Iterations(50);

void BM_DeoptlessDispatchHit(benchmark::State &State) {
  // Same phase flip, but after the continuation exists: measures the
  // dispatch overhead of deoptless (context computation + table scan +
  // continuation call).
  auto V = makeVm(TierStrategy::Deoptless);
  V->eval("ints <- 1:1000");
  V->eval("reals <- as.numeric(1:1000)");
  for (int K = 0; K < 8; ++K)
    V->eval("sum_data(ints)");
  V->eval("sum_data(reals)"); // compile the continuation
  for (auto _ : State)
    benchmark::DoNotOptimize(V->eval("sum_data(reals)"));
}
BENCHMARK(BM_DeoptlessDispatchHit);

void BM_OsrInCompileAndEnter(benchmark::State &State) {
  // A single long-running call: the loop tiers up mid-activation.
  for (auto _ : State) {
    State.PauseTiming();
    Vm::Config C = benchConfig(TierStrategy::Normal);
    C.OsrThreshold = 200;
    Vm V(C);
    V.eval(sumSetup());
    V.eval("data <- as.numeric(1:" + std::to_string(SumN) + ")");
    State.ResumeTiming();
    benchmark::DoNotOptimize(V.eval("sum_data(data)"));
  }
  State.SetItemsProcessed(State.iterations() * SumN);
}
BENCHMARK(BM_OsrInCompileAndEnter)->Iterations(50);

void BM_ContinuationCompile(benchmark::State &State) {
  // Cost of compiling a deoptless continuation (the one-iteration bump in
  // Fig. 4): fresh VM per measurement, first real-typed call after an
  // int-trained optimized version.
  for (auto _ : State) {
    State.PauseTiming();
    Vm::Config C = benchConfig(TierStrategy::Deoptless);
    C.OsrThreshold = 0;
    Vm V(C);
    V.eval(sumSetup());
    V.eval("ints <- 1:200");
    V.eval("reals <- as.numeric(1:200)");
    for (int K = 0; K < 6; ++K)
      V.eval("sum_data(ints)");
    State.ResumeTiming();
    benchmark::DoNotOptimize(V.eval("sum_data(reals)"));
  }
}
BENCHMARK(BM_ContinuationCompile)->Iterations(50);

void BM_GuardChecksOnly(benchmark::State &State) {
  // Peak-performance effect of the explicit guards (paper §4.1 reports no
  // measurable effect; the cost shows up as code size, which we report as
  // a counter).
  auto V = makeVm(TierStrategy::Normal);
  warm(*V);
  uint64_t Before = stats().AssumeChecks;
  for (auto _ : State)
    benchmark::DoNotOptimize(V->eval("sum_data(data)"));
  State.counters["guard_checks_per_iter"] = benchmark::Counter(
      static_cast<double>(stats().AssumeChecks - Before) /
      State.iterations());
}
BENCHMARK(BM_GuardChecksOnly);

void BM_CleanupAblation(benchmark::State &State) {
  // The §4.3 feedback cleanup pass, ablated: without it, continuations
  // compile against stale profiles, mis-speculate, and deopt for good —
  // the float-phase call becomes a true deoptimization every time.
  bool Cleanup = State.range(0) != 0;
  for (auto _ : State) {
    State.PauseTiming();
    Vm::Config C = benchConfig(TierStrategy::Deoptless);
    C.OsrThreshold = 0;
    C.FeedbackCleanup = Cleanup;
    Vm V(C);
    V.eval(sumSetup());
    V.eval("ints <- 1:2000");
    V.eval("reals <- as.numeric(1:2000)");
    for (int K = 0; K < 6; ++K)
      V.eval("sum_data(ints)");
    V.eval("sum_data(reals)"); // first continuation
    uint64_t DeoptsBefore = stats().Deopts;
    State.ResumeTiming();
    // Steady-state float calls: with cleanup these are dispatch hits;
    // without it they degrade.
    for (int K = 0; K < 10; ++K)
      benchmark::DoNotOptimize(V.eval("sum_data(reals)"));
    State.PauseTiming();
    State.counters["true_deopts"] = benchmark::Counter(
        static_cast<double>(stats().Deopts - DeoptsBefore),
        benchmark::Counter::kAvgIterations);
    State.ResumeTiming();
  }
}
BENCHMARK(BM_CleanupAblation)->Arg(1)->Arg(0)->Iterations(30);

void BM_LowerSuite(benchmark::State &State) {
  // Lowering alone: the optimized IR of every closure the main suite
  // defines, built once from the feedback of three driver runs; each
  // iteration lowers all of it.
  size_t N;
  const Program *Suite = mainSuite(N);
  std::vector<std::unique_ptr<Vm>> Vms; // own the IR's functions
  std::vector<std::unique_ptr<IrCode>> Irs;
  uint64_t Peeled = 0;
  for (size_t P = 0; P < N; ++P) {
    Vms.push_back(std::make_unique<Vm>(benchConfig(TierStrategy::Normal)));
    Vm &V = *Vms.back();
    V.eval(Suite[P].Setup);
    for (int K = 0; K < 3; ++K)
      V.eval(Suite[P].Driver);
    const OptOptions O = V.optView();
    const uint64_t PeeledBefore = V.context().Stats.PeeledLoops;
    for (const auto &Binding : V.global()->bindings()) {
      if (Binding.second.tag() != Tag::Clos)
        continue;
      Function *Fn = Binding.second.closObj()->Fn;
      std::unique_ptr<IrCode> Ir =
          optimizeToIr(Fn, CallConv::FullElided, EntryState(), O);
      if (!Ir)
        Ir = optimizeToIr(Fn, CallConv::FullEnv, EntryState(), O);
      if (Ir)
        Irs.push_back(std::move(Ir));
    }
    Peeled += V.context().Stats.PeeledLoops - PeeledBefore;
  }
  size_t LowInstrs = 0;
  for (auto _ : State) {
    LowInstrs = 0;
    for (const auto &Ir : Irs) {
      std::unique_ptr<LowFunction> Low = lowerToLow(*Ir);
      benchmark::DoNotOptimize(Low.get());
      LowInstrs += Low->Code.size();
    }
  }
  // What the native tier makes of that code, outside the timed loop:
  // compile-time-known int slots the stitcher folds to immediates,
  // loop-invariant vector pins, and raw-slot candidates the register
  // allocator could not home.
  size_t IntConsts = 0, Pins = 0, RegSpills = 0, GenericBins = 0;
  size_t LdEnvs = 0, Guards = 0;
  for (const auto &Ir : Irs) {
    std::unique_ptr<LowFunction> Low = lowerToLow(*Ir);
    for (const LowInstr &I : Low->Code) {
      GenericBins += I.Op == LowOp::BinGenLow;
      LdEnvs += I.Op == LowOp::LdEnv;
    }
    Guards += Low->GuardCount;
    for (uint8_t Known : intConstSlots(*Low).Known)
      IntConsts += Known;
    RegAllocation RA = allocateRegisters(*Low, true);
    Pins += RA.Pins.size();
    RegSpills += RA.Spills;
  }
  State.counters["closures"] = static_cast<double>(Irs.size());
  State.counters["low_instrs"] = static_cast<double>(LowInstrs);
  State.counters["int_consts"] = static_cast<double>(IntConsts);
  State.counters["pins"] = static_cast<double>(Pins);
  State.counters["reg_spills"] = static_cast<double>(RegSpills);
  State.counters["generic_bins"] = static_cast<double>(GenericBins);
  State.counters["ldenv"] = static_cast<double>(LdEnvs);
  State.counters["guards"] = static_cast<double>(Guards);
  State.counters["peeled_loops"] = static_cast<double>(Peeled);
}
BENCHMARK(BM_LowerSuite)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
