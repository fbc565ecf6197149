//===-- obs/trace.cpp - Structured runtime event tracer -------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/trace.h"
#include "support/timer.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

using namespace rjit;
using namespace rjit::obs;

std::atomic<uint32_t> rjit::obs::detail::TraceRefs{0};

namespace {

/// Ring capacity for buffers registered after the last traceBegin().
std::atomic<uint64_t> ConfiguredCap{1 << 16};

/// Timestamp origin: set at the first traceBegin() so exported times are
/// small offsets, not absolute steady-clock readings.
std::atomic<uint64_t> TsBase{0};

/// All per-thread rings ever registered. Buffers are shared_ptr so a
/// thread's cached handle stays valid across traceReset() and the events
/// of exited threads (compiler pool workers) survive for export.
struct BufferRegistry {
  std::mutex Mu;
  std::vector<std::shared_ptr<TraceBuffer>> Buffers;
  uint32_t NextTid = 1;
};

BufferRegistry &registry() {
  static BufferRegistry R;
  return R;
}

/// The calling thread's ring, registered on first use.
TraceBuffer &threadBuffer() {
  static thread_local std::shared_ptr<TraceBuffer> B = [] {
    BufferRegistry &R = registry();
    std::lock_guard<std::mutex> L(R.Mu);
    auto P = std::make_shared<TraceBuffer>(
        static_cast<size_t>(ConfiguredCap.load(std::memory_order_relaxed)),
        R.NextTid++);
    R.Buffers.push_back(P);
    return P;
  }();
  return *B;
}

/// Snapshot of the registered buffers (the buffers themselves are then
/// read lock-free via count()/at()).
std::vector<std::shared_ptr<TraceBuffer>> bufferSnapshot() {
  BufferRegistry &R = registry();
  std::lock_guard<std::mutex> L(R.Mu);
  return R.Buffers;
}

struct EvDesc {
  const char *Name;
  const char *Cat;
};

const EvDesc &descOf(TraceEv K) {
  static const EvDesc Desc[] = {
#define TRACE_EV(Kind, Name, Cat) {Name, Cat},
#include "obs/trace.def"
  };
  static_assert(sizeof(Desc) / sizeof(Desc[0]) ==
                static_cast<size_t>(TraceEv::kCount));
  return Desc[static_cast<size_t>(K)];
}

} // namespace

bool rjit::obs::traceEnabledDefault() {
  static const bool D = [] {
    const char *E = std::getenv("RJIT_TRACE");
    return E && *E && *E != '0';
  }();
  return D;
}

void rjit::obs::traceBegin(size_t BufferCapacity) {
  if (BufferCapacity)
    ConfiguredCap.store(BufferCapacity, std::memory_order_relaxed);
  // Build the calling thread's ring now: its zero-fill (a few MiB at the
  // default capacity) must not land between an event's timestamp and
  // its record.
  (void)threadBuffer();
  uint64_t Zero = 0;
  TsBase.compare_exchange_strong(Zero, nowNanos(),
                                 std::memory_order_relaxed);
  detail::TraceRefs.fetch_add(1, std::memory_order_relaxed);
}

void rjit::obs::traceEnd() {
  detail::TraceRefs.fetch_sub(1, std::memory_order_relaxed);
}

void rjit::obs::traceEvent(TraceEv Kind, uint64_t DurNanos, uint64_t A,
                           uint64_t B) {
  // Take the ring before the timestamp: a thread's first event may
  // build it.
  TraceBuffer &Ring = threadBuffer();
  TraceEvent E;
  E.Ts = nowNanos();
  E.Dur = DurNanos;
  E.A = A;
  E.B = B;
  E.Kind = Kind;
  Ring.record(E);
}

uint64_t rjit::obs::nextVersionId() {
  static std::atomic<uint64_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t rjit::obs::traceEventCount() {
  uint64_t N = 0;
  for (const auto &B : bufferSnapshot())
    N += B->count();
  return N;
}

uint64_t rjit::obs::traceDropped() {
  uint64_t N = 0;
  for (const auto &B : bufferSnapshot())
    N += B->dropped();
  return N;
}

uint64_t rjit::obs::traceCountOf(TraceEv Kind) {
  uint64_t N = 0;
  for (const TraceEvent &E : traceEvents())
    N += E.Kind == Kind;
  return N;
}

std::vector<TraceEvent> rjit::obs::traceEvents() {
  std::vector<TraceEvent> All;
  for (const auto &B : bufferSnapshot()) {
    uint64_t C = B->count();
    for (uint64_t K = 0; K < C; ++K)
      All.push_back(B->at(K));
  }
  return All;
}

void rjit::obs::exportChromeTrace(std::ostream &Os) {
  // Merge every ring's consistent prefix and sort by timestamp; Perfetto
  // does not require ordering but deterministic output diffs better.
  struct Tagged {
    TraceEvent E;
    uint32_t Tid;
  };
  std::vector<Tagged> All;
  for (const auto &B : bufferSnapshot()) {
    uint64_t C = B->count();
    for (uint64_t K = 0; K < C; ++K)
      All.push_back({B->at(K), B->tid()});
  }
  std::stable_sort(All.begin(), All.end(),
                   [](const Tagged &X, const Tagged &Y) {
                     return X.E.Ts < Y.E.Ts;
                   });

  uint64_t Base = TsBase.load(std::memory_order_relaxed);
  Os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":"
     << traceDropped() << "},\"traceEvents\":[";
  char Buf[256];
  bool First = true;
  for (const Tagged &T : All) {
    const EvDesc &D = descOf(T.E.Kind);
    double TsUs =
        static_cast<double>(T.E.Ts >= Base ? T.E.Ts - Base : 0) / 1000.0;
    if (!First)
      Os << ",";
    First = false;
    if (T.E.Dur) {
      // Duration ("complete") event: ts marks the *start*.
      double DurUs = static_cast<double>(T.E.Dur) / 1000.0;
      double StartUs = TsUs - DurUs > 0 ? TsUs - DurUs : 0;
      std::snprintf(Buf, sizeof(Buf),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"a\":%" PRIu64 ",\"b\":%" PRIu64 "}}",
                    D.Name, D.Cat, T.Tid, StartUs, DurUs, T.E.A, T.E.B);
    } else {
      std::snprintf(Buf, sizeof(Buf),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\","
                    "\"s\":\"t\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                    "\"args\":{\"a\":%" PRIu64 ",\"b\":%" PRIu64 "}}",
                    D.Name, D.Cat, T.Tid, TsUs, T.E.A, T.E.B);
    }
    Os << Buf;
  }
  Os << "]}";
}

bool rjit::obs::writeChromeTrace(const std::string &Path) {
  std::ofstream Os(Path);
  if (!Os)
    return false;
  exportChromeTrace(Os);
  Os << "\n";
  return static_cast<bool>(Os);
}

void rjit::obs::traceSummary(std::ostream &Os) {
  uint64_t Counts[static_cast<size_t>(TraceEv::kCount)] = {};
  for (const TraceEvent &E : traceEvents())
    ++Counts[static_cast<size_t>(E.Kind)];
  Os << "# trace summary (" << traceEventCount() << " events, "
     << traceDropped() << " dropped)\n";
  for (size_t K = 0; K < static_cast<size_t>(TraceEv::kCount); ++K)
    if (Counts[K])
      Os << "#   " << descOf(static_cast<TraceEv>(K)).Name << ": "
         << Counts[K] << "\n";
}

void rjit::obs::traceReset() {
  for (const auto &B : bufferSnapshot())
    B->reset();
}
