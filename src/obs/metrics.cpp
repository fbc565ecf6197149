//===-- obs/metrics.cpp - Latency histograms & metrics registry -----------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/metrics.h"

#include <cstdio>

using namespace rjit;
using namespace rjit::obs;

uint64_t LatencyHistogram::quantile(double Q) const {
  uint64_t Total = count();
  if (!Total)
    return 0;
  uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Total));
  if (Rank < 1)
    Rank = 1;
  if (Rank > Total)
    Rank = Total;
  uint64_t Cum = 0;
  for (unsigned K = 0; K < NumBuckets; ++K) {
    Cum += Buckets[K];
    if (Cum >= Rank)
      return bucketLowerBound(K);
  }
  return max(); // counts raced past N; saturate at the recorded maximum
}

static VmMetrics GlobalMetrics;

VmMetrics &rjit::obs::metrics() { return GlobalMetrics; }

void rjit::obs::resetMetrics() {
  GlobalMetrics.CompileLatency.reset();
  GlobalMetrics.QueueWait.reset();
  GlobalMetrics.DeoptPause.reset();
  GlobalMetrics.Iteration.reset();
  GlobalMetrics.GcPause.reset();
}

namespace {

/// The counter schema: stable snake_case names (the JSON/report keys) in
/// declaration order of VmStats. Keep in sync with support/stats.h and
/// the metrics glossary in README "Observability".
struct CounterDesc {
  const char *Name;
  RelaxedCounter VmStats::*Member;
};

constexpr CounterDesc Counters[] = {
    {"compilations", &VmStats::Compilations},
    {"osr_in_compilations", &VmStats::OsrInCompilations},
    {"osr_in_entries", &VmStats::OsrInEntries},
    {"deopts", &VmStats::Deopts},
    {"deoptless_attempts", &VmStats::DeoptlessAttempts},
    {"deoptless_hits", &VmStats::DeoptlessHits},
    {"deoptless_compiles", &VmStats::DeoptlessCompiles},
    {"deoptless_rejected", &VmStats::DeoptlessRejected},
    {"assume_checks", &VmStats::AssumeChecks},
    {"assume_failures", &VmStats::AssumeFailures},
    {"injected_failures", &VmStats::InjectedFailures},
    {"reoptimizations", &VmStats::Reoptimizations},
    {"ctx_versions", &VmStats::CtxVersions},
    {"ctx_dispatch_hits", &VmStats::CtxDispatchHits},
    {"ctx_dispatch_misses", &VmStats::CtxDispatchMisses},
    {"inlined_calls", &VmStats::InlinedCalls},
    {"hoisted_instrs", &VmStats::HoistedInstrs},
    {"hoisted_guards", &VmStats::HoistedGuards},
    {"eliminated_guards", &VmStats::EliminatedGuards},
    {"multi_frame_deopts", &VmStats::MultiFrameDeopts},
    {"inline_frames_materialized", &VmStats::InlineFramesMaterialized},
    {"deoptless_inline_dispatches", &VmStats::DeoptlessInlineDispatches},
    {"async_compiles", &VmStats::AsyncCompiles},
    {"warmup_pauses_avoided", &VmStats::WarmupPausesAvoided},
    {"native_compiles", &VmStats::NativeCompiles},
    {"native_enters", &VmStats::NativeEnters},
    {"native_linked_transfers", &VmStats::NativeLinkedTransfers},
    {"native_fused_ops", &VmStats::NativeFusedOps},
    {"native_reg_spills", &VmStats::NativeRegSpills},
    {"cow_copies", &VmStats::CowCopies},
    {"gc_collections", &VmStats::GcCollections},
    {"gc_freed_bytes", &VmStats::GcFreedBytes},
};

struct GaugeDesc {
  const char *Name;
  RelaxedGauge VmStats::*Member;
};

constexpr GaugeDesc Gauges[] = {
    {"compile_queue_depth", &VmStats::CompileQueueDepth},
    {"graveyard_size", &VmStats::GraveyardSize},
    {"heap_live_bytes", &VmStats::HeapLiveBytes},
};

struct HistDesc {
  const char *Name;
  LatencyHistogram VmMetrics::*Member;
};

constexpr HistDesc Hists[] = {
    {"compile_latency_ns", &VmMetrics::CompileLatency},
    {"queue_wait_ns", &VmMetrics::QueueWait},
    {"deopt_pause_ns", &VmMetrics::DeoptPause},
    {"iteration_ns", &VmMetrics::Iteration},
    {"gc_pause_ns", &VmMetrics::GcPause},
};

} // namespace

void MetricsRegistry::forEachCounter(
    const VmStats &S,
    const std::function<void(const char *, uint64_t)> &Fn) {
  for (const CounterDesc &D : Counters)
    Fn(D.Name, (S.*D.Member).load());
}

void MetricsRegistry::forEachGauge(
    const VmStats &S,
    const std::function<void(const char *, uint64_t, uint64_t)> &Fn) {
  for (const GaugeDesc &D : Gauges)
    Fn(D.Name, (S.*D.Member).value(), (S.*D.Member).highWater());
}

void MetricsRegistry::forEachHistogram(
    const VmMetrics &M,
    const std::function<void(const char *, const LatencyHistogram &)>
        &Fn) {
  for (const HistDesc &D : Hists)
    Fn(D.Name, M.*D.Member);
}

VmMetrics MetricsRegistry::snapshotAndReset() {
  VmMetrics Out;
  for (const HistDesc &D : Hists)
    Out.*D.Member = (GlobalMetrics.*D.Member).drain();
  return Out;
}

void MetricsRegistry::print(const char *Label, const VmStats &S,
                            const VmMetrics &M) {
  forEachCounter(S, [&](const char *Name, uint64_t V) {
    if (V)
      printf("# metric[%s] %s = %llu\n", Label, Name,
             static_cast<unsigned long long>(V));
  });
  forEachGauge(S, [&](const char *Name, uint64_t V, uint64_t High) {
    if (V || High)
      printf("# metric[%s] %s = %llu (high-water %llu)\n", Label, Name,
             static_cast<unsigned long long>(V),
             static_cast<unsigned long long>(High));
  });
  forEachHistogram(M, [&](const char *Name, const LatencyHistogram &H) {
    if (H.count())
      printf("# metric[%s] %s: count=%llu p50=%llu p90=%llu p99=%llu "
             "max=%llu mean=%.0f\n",
             Label, Name, static_cast<unsigned long long>(H.count()),
             static_cast<unsigned long long>(H.p50()),
             static_cast<unsigned long long>(H.p90()),
             static_cast<unsigned long long>(H.p99()),
             static_cast<unsigned long long>(H.max()), H.mean());
  });
}
