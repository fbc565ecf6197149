//===-- obs/metrics.cpp - Latency histograms & metrics registry -----------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/metrics.h"

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

void MetricsRegistry::forEachCounter(
    const VmStats &S,
    const std::function<void(const char *, uint64_t)> &Fn) {
#define VM_COUNTER(Member, Name) Fn(Name, S.Member.load());
#include "support/stats.def"
}

void MetricsRegistry::forEachGauge(
    const VmStats &S,
    const std::function<void(const char *, uint64_t, uint64_t)> &Fn) {
#define VM_GAUGE(Member, Name)                                                 \
  Fn(Name, S.Member.value(), S.Member.highWater());
#include "support/stats.def"
}

void MetricsRegistry::forEachHistogram(
    const VmMetrics &M,
    const std::function<void(const char *, const LatencyHistogram &)>
        &Fn) {
#define VM_HISTOGRAM(Member, Name) Fn(Name, M.Member);
#include "obs/metrics.def"
}

VmMetrics VmMetrics::drain() {
  VmMetrics Out;
#define VM_HISTOGRAM(Member, Name) Out.Member = Member.drain();
#include "obs/metrics.def"
  return Out;
}

VmMetrics &VmMetrics::operator+=(const VmMetrics &O) {
#define VM_HISTOGRAM(Member, Name) Member += O.Member;
#include "obs/metrics.def"
  return *this;
}
