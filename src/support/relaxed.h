//===-- support/relaxed.h - Relaxed-atomic counters --------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A drop-in relaxed-atomic replacement for the plain uint64_t event
/// counters. The counters are pure diagnostics — no control flow depends
/// on their ordering — so every access is memory_order_relaxed: cheap on
/// the hot paths, and free of data races the moment a compiler thread or a
/// second executor exists. The wrapper keeps the counters copyable so
/// harness code can still snapshot/diff stats structs by value.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_SUPPORT_RELAXED_H
#define RJIT_SUPPORT_RELAXED_H

#include <atomic>
#include <cstdint>

namespace rjit {

/// uint64_t counter with relaxed-atomic accesses and value semantics.
class RelaxedCounter {
public:
  RelaxedCounter() = default;
  RelaxedCounter(uint64_t X) : V(X) {}
  RelaxedCounter(const RelaxedCounter &O) : V(O.load()) {}
  RelaxedCounter &operator=(const RelaxedCounter &O) {
    store(O.load());
    return *this;
  }
  RelaxedCounter &operator=(uint64_t X) {
    store(X);
    return *this;
  }

  uint64_t load() const { return V.load(std::memory_order_relaxed); }
  void store(uint64_t X) { V.store(X, std::memory_order_relaxed); }
  operator uint64_t() const { return load(); }

  RelaxedCounter &operator++() {
    V.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  /// The single-writer increment: a relaxed load and a relaxed store, no
  /// locked read-modify-write. Only for counters one thread writes — a
  /// Vm's executor on its per-guard and per-call paths (stats.def says
  /// which); readers on other threads stay race-free because every access
  /// is atomic, but a second writer would lose increments.
  void bump() { store(load() + 1); }
  uint64_t operator++(int) { return V.fetch_add(1, std::memory_order_relaxed); }
  RelaxedCounter &operator--() {
    V.fetch_sub(1, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter &operator+=(uint64_t X) {
    V.fetch_add(X, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter &operator-=(uint64_t X) {
    V.fetch_sub(X, std::memory_order_relaxed);
    return *this;
  }

  /// Atomically replaces the value with \p X and returns the old value.
  /// The draining primitive behind LatencyHistogram::drain(): every
  /// concurrent increment lands either in the returned value or in the
  /// counter's post-exchange state, never both and never neither.
  uint64_t exchange(uint64_t X) {
    return V.exchange(X, std::memory_order_relaxed);
  }

  /// Monotonic high-water update (e.g. queue-depth gauges). Lost updates
  /// between racing maxima are acceptable for a diagnostic gauge; every
  /// access stays atomic so the race is benign, not undefined.
  void recordMax(uint64_t X) {
    uint64_t Cur = load();
    while (X > Cur &&
           !V.compare_exchange_weak(Cur, X, std::memory_order_relaxed,
                                    std::memory_order_relaxed))
      ;
  }

private:
  std::atomic<uint64_t> V{0};
};

/// A level gauge with typed add/sub semantics and a high-water mark —
/// what GraveyardSize and CompileQueueDepth actually are, as opposed to
/// the monotone event counters above. sub() clamps at zero instead of
/// wrapping: a diagnostic must saturate, not report ~2^64. Owners that
/// know the true population (the Vm owns its graveyard) set it with
/// setLevel() instead of applying deltas. Copyable like RelaxedCounter so
/// stats structs keep value semantics; all accesses are relaxed atomics.
class RelaxedGauge {
public:
  RelaxedGauge() = default;
  RelaxedGauge(const RelaxedGauge &O)
      : Cur(O.value()), High(O.highWater()) {}
  RelaxedGauge &operator=(const RelaxedGauge &O) {
    Cur.store(O.value(), std::memory_order_relaxed);
    High.store(O.highWater(), std::memory_order_relaxed);
    return *this;
  }

  void add(uint64_t N = 1) {
    uint64_t Now = Cur.fetch_add(N, std::memory_order_relaxed) + N;
    // Racing maxima may lose an update; benign for a diagnostic
    // (RelaxedCounter::recordMax has the same contract).
    uint64_t H = High.load(std::memory_order_relaxed);
    while (Now > H &&
           !High.compare_exchange_weak(H, Now, std::memory_order_relaxed,
                                       std::memory_order_relaxed))
      ;
  }

  /// Decrements by \p N, saturating at zero (a concurrent add lost to the
  /// clamp races benignly low — never wraps).
  void sub(uint64_t N = 1) {
    uint64_t C = Cur.load(std::memory_order_relaxed);
    while (true) {
      uint64_t Next = C >= N ? C - N : 0;
      if (Cur.compare_exchange_weak(C, Next, std::memory_order_relaxed,
                                    std::memory_order_relaxed))
        return;
    }
  }

  /// Overwrites the level with the owner-tracked population and raises
  /// the high-water to at least \p L. With several writers the level is
  /// last-writer-wins and the high-water the max of per-writer levels —
  /// exact for single-owner gauges, a benign diagnostic race otherwise.
  void setLevel(uint64_t L) {
    Cur.store(L, std::memory_order_relaxed);
    uint64_t H = High.load(std::memory_order_relaxed);
    while (L > H &&
           !High.compare_exchange_weak(H, L, std::memory_order_relaxed,
                                       std::memory_order_relaxed))
      ;
  }

  uint64_t value() const { return Cur.load(std::memory_order_relaxed); }
  uint64_t highWater() const {
    return High.load(std::memory_order_relaxed);
  }

  /// Comparisons/printing read the current level, like the counter.
  operator uint64_t() const { return value(); }

private:
  std::atomic<uint64_t> Cur{0};
  std::atomic<uint64_t> High{0};
};

} // namespace rjit

#endif // RJIT_SUPPORT_RELAXED_H
