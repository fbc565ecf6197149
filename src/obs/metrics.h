//===-- obs/metrics.h - Latency histograms & metrics registry ----*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Duration metrics to complement the flat event counters of
/// support/stats.h: log-bucketed latency histograms (compile latency,
/// compile-queue wait, deopt pause, per-iteration time) with p50/p90/p99
/// extraction, and a MetricsRegistry that enumerates every counter, gauge
/// and histogram by name — the single source the bench harness prints and
/// serializes from. Each metric is declared once, in support/stats.def
/// (counters, gauges) or obs/metrics.def (histograms).
///
/// Histograms are always on (recording is a couple of relaxed increments
/// at sites that already pay a compile or a deopt); only the *event
/// tracer* (obs/trace.h) is gated, because it records per-event payloads.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OBS_METRICS_H
#define RJIT_OBS_METRICS_H

#include "support/relaxed.h"
#include "support/stats.h"

#include <array>
#include <cstdint>
#include <functional>
#include <string>

namespace rjit {
namespace obs {

/// A log-bucketed histogram of nanosecond durations, HdrHistogram-style:
/// values below 16 get exact unit buckets; above, each power-of-two octave
/// is split into 8 linear sub-buckets, bounding the relative quantile
/// error at 12.5%. All state is relaxed atomics — recording from executor
/// and compiler threads concurrently is race-free, and the struct stays
/// copyable so harness code can snapshot/diff by value.
class LatencyHistogram {
public:
  static constexpr unsigned SubBuckets = 8; ///< per octave, above 16
  static constexpr unsigned Octaves = 60;   ///< 2^4 .. 2^63
  static constexpr unsigned NumBuckets = 16 + Octaves * SubBuckets;

  /// Bucket index of \p V (exact below 16, log-linear above).
  static unsigned bucketOf(uint64_t V) {
    if (V < 16)
      return static_cast<unsigned>(V);
    unsigned Octave = 63 - static_cast<unsigned>(__builtin_clzll(V));
    unsigned Sub = static_cast<unsigned>((V >> (Octave - 3)) & 7);
    return 16 + (Octave - 4) * SubBuckets + Sub;
  }

  /// Smallest value mapping to bucket \p Idx (the reported quantile
  /// representative: quantiles never overstate a latency).
  static uint64_t bucketLowerBound(unsigned Idx) {
    if (Idx < 16)
      return Idx;
    unsigned Octave = 4 + (Idx - 16) / SubBuckets;
    unsigned Sub = (Idx - 16) % SubBuckets;
    return static_cast<uint64_t>(SubBuckets + Sub) << (Octave - 3);
  }

  void record(uint64_t Nanos) {
    ++Buckets[bucketOf(Nanos)];
    ++N;
    Sum += Nanos;
    MaxV.recordMax(Nanos);
  }

  uint64_t count() const { return N; }
  uint64_t sum() const { return Sum; }
  uint64_t max() const { return MaxV; }
  double mean() const {
    uint64_t C = count();
    return C ? static_cast<double>(sum()) / static_cast<double>(C) : 0.0;
  }

  /// The \p Q quantile (0 < Q <= 1) as the lower bound of the bucket the
  /// cumulative count crosses ceil(Q*N) in; 0 when empty.
  uint64_t quantile(double Q) const;

  uint64_t p50() const { return quantile(0.50); }
  uint64_t p90() const { return quantile(0.90); }
  uint64_t p99() const { return quantile(0.99); }
  uint64_t p999() const { return quantile(0.999); }

  void reset() { *this = LatencyHistogram(); }

  /// Adds \p O's samples: merges another Vm's histogram into this one.
  /// An empty drain snapshot adds nothing (drain() took no bucket).
  LatencyHistogram &operator+=(const LatencyHistogram &O) {
    if (!O.N)
      return *this;
    for (unsigned K = 0; K < NumBuckets; ++K)
      Buckets[K] += O.Buckets[K];
    N += O.N;
    Sum += O.Sum;
    MaxV.recordMax(O.MaxV);
    return *this;
  }

  /// Drains this histogram into the returned snapshot: every bucket, the
  /// count, the sum and the max are atomically exchanged with zero, so
  /// each recorded sample lands in *exactly one* drain even while
  /// recorders run (a copy-then-reset loses the samples recorded between
  /// its two steps), and a series of drains conserves count and sum. A
  /// record() racing the drain may split across two snapshots (its bucket
  /// in one, its N in the next); quantiles clamp at the recorded max then
  /// (see quantile()). With no record completed since the last drain it
  /// takes nothing. The primitive behind VmMetrics::drain().
  LatencyHistogram drain() {
    LatencyHistogram Out;
    if (!N)
      return Out;
    for (unsigned K = 0; K < NumBuckets; ++K)
      Out.Buckets[K] = Buckets[K].exchange(0);
    Out.N = N.exchange(0);
    Out.Sum = Sum.exchange(0);
    Out.MaxV = MaxV.exchange(0);
    return Out;
  }

private:
  std::array<RelaxedCounter, NumBuckets> Buckets{};
  RelaxedCounter N;
  RelaxedCounter Sum;
  RelaxedCounter MaxV;
};

/// A Vm's duration metrics, kept in its execution context next to its
/// VmStats: one histogram per obs/metrics.def entry.
struct VmMetrics {
#define VM_HISTOGRAM(Member, Name) LatencyHistogram Member;
#include "obs/metrics.def"

  /// Drains every histogram into the returned snapshot, losslessly
  /// (LatencyHistogram::drain): how a phase or a timed window starts.
  VmMetrics drain();

  /// Merges \p O's histograms into these (summing several Vms).
  VmMetrics &operator+=(const VmMetrics &O);
};

/// The histograms of the calling thread's Vm (its execution context's);
/// the process default context's on a thread without one.
VmMetrics &metrics();

/// Enumeration facade over every metric the VM exposes: the VmStats event
/// counters and gauges (by stable snake_case name) and the VmMetrics
/// histograms. One registry instance describes the *schema*; values are
/// read from the snapshot/instance passed to each visit.
class MetricsRegistry {
public:
  /// Visits each counter of \p S as (name, value).
  static void
  forEachCounter(const VmStats &S,
                 const std::function<void(const char *, uint64_t)> &Fn);

  /// Visits each gauge of \p S as (name, current, high-water).
  static void forEachGauge(
      const VmStats &S,
      const std::function<void(const char *, uint64_t, uint64_t)> &Fn);

  /// Visits each histogram of \p M as (name, histogram).
  static void forEachHistogram(
      const VmMetrics &M,
      const std::function<void(const char *, const LatencyHistogram &)>
          &Fn);
};

} // namespace obs
} // namespace rjit

#endif // RJIT_OBS_METRICS_H
