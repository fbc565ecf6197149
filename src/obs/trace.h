//===-- obs/trace.h - Structured runtime event tracer ------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lock-free, per-thread ring-buffer event tracer for the runtime events
/// the paper's evaluation reasons about: version creation, compile
/// start/finish (with queue wait), publication/retire/reclaim, true
/// deoptimizations and the version they are charged to, blacklisting,
/// deoptless attempt/hit/compile/reject, OSR-in, guard failures, native
/// enter and side exits, and injected invalidation.
///
/// Design constraints, in order:
///
///  * Near-zero cost when off. Every instrumentation site is guarded by
///    traceOn() — one relaxed load of a process-wide atomic — and computes
///    nothing (no timestamps, no argument marshalling) unless it returns
///    true. Enablement is a refcount: each Vm whose Config::Trace is on
///    holds one reference (plus the bench harness's --trace reference), so
///    independent executor threads compose without coordination.
///
///  * TSan-clean by construction. Each thread records into its own buffer
///    (registered on first event, retained after thread exit so compiler
///    pool events survive pool shutdown). Slots are write-once: the writer
///    publishes a slot with a release store of the count, readers take an
///    acquire snapshot — there is no slot reuse to race on. Overflow
///    therefore drops the *new* event and increments a drop counter
///    instead of overwriting the oldest slot; no loss is ever silent.
///
///  * Machine-readable. exportChromeTrace() writes the Chrome trace-event
///    JSON format (load in Perfetto / chrome://tracing); traceSummary()
///    prints per-kind counts for humans.
///
/// The rings are also the VM's only record of each code-table entry's
/// history. Every entry (dispatch/table.h: versions, OSR-in and deoptless
/// continuations) carries an id (nextVersionId(), minted when the entry is
/// created and kept across the Fig. 1 retire/recompile cycle), and each
/// transition of that entry is one event with the id in A: version-create
/// (B = CompileKind), compile (versions only), publish (B = CompileKind),
/// version-deopt (a true deopt charged to a version), version-blacklist
/// (the failure mark), retire (code moved to the graveyard) and reclaim
/// (graveyarded code freed). Those seven kinds filtered by one id replay
/// that entry's timeline; all but compile are in the export's `lifecycle`
/// category.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OBS_TRACE_H
#define RJIT_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace rjit {

/// What a compile produces: the compile queue's request kind and the B
/// payload of compile, compile-job, publish and version-create events.
/// deoptbench reads the values from exported traces.
enum class CompileKind : uint8_t {
  Function = 0,     ///< a whole-function version for a CallContext
  OsrIn = 1,        ///< an OSR-in continuation for (pc, entry signature)
  Continuation = 2, ///< a deoptless continuation for a DeoptContext
};

namespace obs {

/// The typed runtime events, one per obs/trace.def entry (which documents
/// each kind's payloads).
enum class TraceEv : uint8_t {
#define TRACE_EV(Kind, Name, Cat) Kind,
#include "obs/trace.def"
  kCount
};

/// One recorded event. 40 bytes, POD: slots are copied into the ring by
/// value and never touched again until export.
struct TraceEvent {
  uint64_t Ts = 0;  ///< nanoseconds (support/timer.h steady clock)
  uint64_t Dur = 0; ///< nanoseconds; 0 for instant events
  uint64_t A = 0;   ///< kind-specific payload (see TraceEv)
  uint64_t B = 0;   ///< kind-specific payload
  TraceEv Kind = TraceEv::CompileStart;
};

/// A single thread's bounded event ring. Public so the overflow/drop
/// discipline is unit-testable without global tracer state; production
/// buffers are owned by the process-wide registry and written through
/// traceEvent(). Single producer (the owning thread); any thread may read
/// a consistent prefix concurrently via count()/at().
class TraceBuffer {
public:
  explicit TraceBuffer(size_t Capacity, uint32_t Tid = 0)
      : Slots(Capacity), Tid(Tid) {}

  /// Records \p E, or drops it (counting the drop) when the ring is full.
  /// Slots are write-once — a full ring drops the newest event rather than
  /// overwriting one a concurrent exporter may be reading.
  void record(const TraceEvent &E) {
    uint64_t N = Count.load(std::memory_order_relaxed);
    if (N >= Slots.size()) {
      Dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Slots[N] = E;
    Count.store(N + 1, std::memory_order_release);
  }

  /// Events recorded so far (acquire: slots below are readable).
  uint64_t count() const { return Count.load(std::memory_order_acquire); }
  uint64_t dropped() const {
    return Dropped.load(std::memory_order_relaxed);
  }
  const TraceEvent &at(uint64_t K) const { return Slots[K]; }
  size_t capacity() const { return Slots.size(); }
  uint32_t tid() const { return Tid; }

  /// Zeroes the ring. Quiescent-point only (no concurrent record()).
  void reset() {
    Count.store(0, std::memory_order_relaxed);
    Dropped.store(0, std::memory_order_relaxed);
  }

private:
  std::vector<TraceEvent> Slots;
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Dropped{0};
  uint32_t Tid;
};

namespace detail {
extern std::atomic<uint32_t> TraceRefs;
} // namespace detail

/// True while at least one tracing reference (a Vm with Config::Trace, or
/// a harness --trace hold) is live. The one check every instrumentation
/// site pays when tracing is off.
inline bool traceOn() {
  return detail::TraceRefs.load(std::memory_order_relaxed) != 0;
}

/// The process default for Vm::Config::Trace::Enabled: true when the
/// RJIT_TRACE environment variable is set to a non-zero value.
bool traceEnabledDefault();

/// Takes a tracing reference and builds the calling thread's ring if it
/// has none. \p BufferCapacity configures the per-thread ring size for
/// buffers created from this call on (already-registered threads keep
/// theirs); pass 0 to leave the current setting.
void traceBegin(size_t BufferCapacity = 0);

/// Drops a tracing reference. Buffers are retained so events recorded by
/// already-exited threads (the compiler pool) remain exportable.
void traceEnd();

/// Records one event into the calling thread's ring. Call only under
/// traceOn() — the site guard is what keeps disabled tracing free.
void traceEvent(TraceEv Kind, uint64_t DurNanos = 0, uint64_t A = 0,
                uint64_t B = 0);

/// Mints a fresh code-table entry id (process-wide, never 0). Ids are
/// minted whether or not tracing is on, so entries created before tracing
/// was switched on still key their later events correctly.
uint64_t nextVersionId();

/// Total events recorded / dropped across every thread's ring.
uint64_t traceEventCount();
uint64_t traceDropped();

/// Count of recorded events of \p Kind across all rings (tests).
uint64_t traceCountOf(TraceEv Kind);

/// Every recorded event, ring by ring, each ring in recording order
/// (tests and post-run reporting).
std::vector<TraceEvent> traceEvents();

/// Writes the Chrome trace-event JSON ({"traceEvents":[...]}; open in
/// Perfetto or chrome://tracing). Concurrent recording into *other*
/// threads' rings is safe (each exported prefix is consistent), but for a
/// complete picture export at a quiescent point.
void exportChromeTrace(std::ostream &Os);

/// Convenience: exportChromeTrace to \p Path. Returns false on I/O error.
bool writeChromeTrace(const std::string &Path);

/// Human-readable per-kind event counts (plus drops), one line each.
void traceSummary(std::ostream &Os);

/// Zeroes every ring and the drop counters.
/// Quiescent-point only: no thread may be recording concurrently.
void traceReset();

} // namespace obs
} // namespace rjit

#endif // RJIT_OBS_TRACE_H
