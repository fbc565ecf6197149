//===-- dispatch/table.h - The bounded code dispatch table -------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one table optimized code is published into, for entering and for
/// exiting optimized code alike (paper §4.2, §4.3). A function's TierState
/// instantiates it three times:
///
///  * CodeTable<CallContext>: whole-function versions (dispatch/context.h);
///  * CodeTable<DeoptContext>: deoptless continuations (osr/reason.h);
///  * CodeTable<OsrKey>: OSR-in continuations by exact (pc, entry
///    signature) (osr/osrin.h).
///
/// A table is bounded, kept sorted from most to least specialized, and
/// dispatch serves the first compatible entry (paper §4.3). Each key
/// supplies the order and the rest of the table's vocabulary:
///
///   bool operator<=(const Key &) const  // may run code compiled for
///   bool operator==(const Key &) const  // names the same entry
///   uint64_t hash() const               // the compile request's detail
///   bool unbounded() const              // exempt from the bound
///   static constexpr CompileKind Kind   // trace payloads, queue keys
///
/// Only the generic CallContext root is exempt from the bound (there is at
/// most one), so a full version table degrades to the seed's
/// single-version behavior rather than to the baseline.
///
/// An entry outlives its code. retire() hands the code to the Vm's
/// graveyard and keeps the key, the tier bookkeeping and the trace id, so
/// blacklisting survives the Fig. 1 deopt/recompile cycle and a recompile
/// republishes into the same entry; the bound counts retired entries too.
/// A failure-marked entry (Blacklisted: too many deopts, or uncompilable)
/// never dispatches, and requests for its key are refused.
///
/// Concurrency (background compilation): lookups are lock-free. The table
/// publishes an immutable most-specialized-first linearization with a
/// release store and readers take an acquire snapshot; superseded
/// snapshots live as long as the table, so a reader mid-scan never sees
/// its snapshot die, and entries never move or leave. An entry's code
/// pointer is itself released/acquired, so an executor that observes live
/// code also observes it fully built, with its bookkeeping. Mutation
/// (insert, publish, retire, failure marks) is serialized by the table's
/// writer lock: the table is BasicLockable, so take
/// `std::lock_guard G(Table)` first; insert() asserts the discipline. The
/// executor never waits for a compile: it keeps running the baseline until
/// code appears.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_DISPATCH_TABLE_H
#define RJIT_DISPATCH_TABLE_H

#include "exec/backend.h"
#include "obs/trace.h"

#include <atomic>
#include <cassert>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rjit {

/// One table entry: the key its code was compiled for, the published code
/// and the tier bookkeeping. Code is published (release) and read
/// (acquire); ownership stays in the entry until retirement moves it to
/// the Vm's graveyard. Hits, DeoptCount and CallsSinceSample are touched
/// only by the owning executor thread; Blacklisted is written under the
/// table's writer lock and read (racily but atomically) by dispatch.
template <typename Key> struct CodeEntry {
  explicit CodeEntry(const Key &K) : Ctx(K) {}

  const Key Ctx;
  uint32_t Hits = 0;
  uint32_t DeoptCount = 0;
  std::atomic<bool> Blacklisted{false}; ///< the failure mark
  uint64_t CallsSinceSample = 0; ///< ProfileDrivenReopt period counter
  uint64_t FeedbackHash = 0;     ///< profile snapshot at compile time
  /// Stable observability identity: the A payload of every lifecycle
  /// trace event of this entry (obs/trace.h). Minted at insert and kept
  /// across the retire/recompile cycle, so one id shows the whole Fig. 1
  /// story of this entry.
  const uint64_t ObsId = obs::nextVersionId();

  /// The published executable (acquire), or null when retired, marked or
  /// not yet built. Backend-produced: interpreter-backed or native code.
  ExecutableCode *code() const {
    return Code.load(std::memory_order_acquire);
  }
  bool live() const { return code() != nullptr; }

  /// Installs \p C, compiled from a profile hashing to \p Hash, as this
  /// entry's code (release). Writer lock required; CodeTable::publish is
  /// the checked path.
  void install(std::unique_ptr<ExecutableCode> C, uint64_t Hash) {
    FeedbackHash = Hash;
    CallsSinceSample = 0;
    Owner = std::move(C);
    Owner->setObsId(ObsId);
    Code.store(Owner.get(), std::memory_order_release);
    if (obs::traceOn())
      obs::traceEvent(obs::TraceEv::Publish, 0, ObsId,
                      static_cast<uint64_t>(Key::Kind));
  }

  /// Sets the failure mark. Writer lock required.
  void markFailed() {
    Blacklisted = true;
    if (obs::traceOn())
      obs::traceEvent(obs::TraceEv::VersionBlacklist, 0, ObsId);
  }

  /// Retires the code, returning ownership. Every retire site hands the
  /// result to Vm::toGraveyard, which stamps the retire epoch the
  /// dispatch-boundary safepoint reclaims by (activations may still be on
  /// the stack, even across later dispatches under recursion). Writer lock
  /// required.
  std::unique_ptr<ExecutableCode> retire() {
    Code.store(nullptr, std::memory_order_release);
    return std::move(Owner);
  }

private:
  std::atomic<ExecutableCode *> Code{nullptr};
  std::unique_ptr<ExecutableCode> Owner;
};

/// A bounded, most-specialized-first dispatch table over \p Key.
template <typename Key> class CodeTable {
public:
  using Entry = CodeEntry<Key>;

  /// \p Cap bounds the entries whose key is not unbounded().
  explicit CodeTable(uint32_t Cap) : Cap(Cap) {}
  ~CodeTable() { delete Pub.load(std::memory_order_relaxed); }
  CodeTable(const CodeTable &) = delete;
  CodeTable &operator=(const CodeTable &) = delete;

  /// The entries in dispatch order, most specialized first: an acquire
  /// snapshot, valid for the table's lifetime.
  const std::vector<Entry *> &entries() const {
    return *Pub.load(std::memory_order_acquire);
  }

  /// First live, unmarked entry whose code \p K may run, or null.
  Entry *dispatch(const Key &K) const {
    for (Entry *E : entries())
      if (E->live() && !E->Blacklisted.load(std::memory_order_relaxed) &&
          K <= E->Ctx)
        return E;
    return nullptr;
  }

  /// The entry for exactly \p K (live, retired or marked), or null.
  Entry *exact(const Key &K) const {
    for (Entry *E : entries())
      if (E->Ctx == K)
        return E;
    return nullptr;
  }

  /// The live entry whose code was prepared from \p Code, or null. The
  /// deopt runtime identifies code by its LowFunction, the one identity
  /// both backends share.
  Entry *owner(const LowFunction *Code) const {
    for (Entry *E : entries())
      if (ExecutableCode *X = E->code())
        if (X->lowPtr() == Code)
          return E;
    return nullptr;
  }

  /// The least specialized live entry, or null.
  Entry *mostGenericLive() const {
    const std::vector<Entry *> &S = entries();
    for (auto It = S.rbegin(); It != S.rend(); ++It)
      if ((*It)->live())
        return *It;
    return nullptr;
  }

  size_t size() const { return entries().size(); }
  size_t liveCount() const {
    size_t N = 0;
    for (Entry *E : entries())
      N += E->live();
    return N;
  }

  /// True when no more bounded entries fit; retired and marked entries
  /// count.
  bool full() const {
    size_t Bounded = 0;
    for (Entry *E : entries())
      Bounded += !E->Ctx.unbounded();
    return Bounded >= Cap;
  }
  /// True when an entry for \p K would not fit.
  bool fullFor(const Key &K) const { return !K.unbounded() && full(); }

  /// The publication path of every kind, under the writer lock: \p Code
  /// becomes the code of \p K's entry, inserted when absent. It is
  /// discarded when \p K does not fit, or when the entry is failure-marked
  /// or already live (a lost race keeps the first code); code that was
  /// never published has no activation, so it is freed at once, and the
  /// native tier's destructor returns its W^X mapping (the arena mutex
  /// makes that safe from a compiler thread). A null \p Code — a failed
  /// compile — sets the failure mark instead. Code that folded global
  /// builtins in an older epoch than \p BuiltinEpoch (the requester's
  /// builtin watch, runtime/context.h) is discarded as a lost race too: a
  /// rebinding overtook the compile. The rebinding bumps the epoch before
  /// its retire scan takes this lock, so code published ahead of the bump
  /// is retired by the scan. Returns whether \p Code was published.
  bool publish(const Key &K, std::unique_ptr<ExecutableCode> Code,
               uint64_t FeedbackHash = 0,
               const std::atomic<uint64_t> *BuiltinEpoch = nullptr) {
    std::lock_guard G(*this);
    Entry *E = exact(K);
    if (!E && !(E = insert(K)))
      return false;
    if (E->Blacklisted || E->live())
      return false;
    if (!Code) {
      E->markFailed();
      return false;
    }
    if (BuiltinEpoch && Code->low().FoldsBuiltins &&
        Code->low().BuiltinEpoch !=
            BuiltinEpoch->load(std::memory_order_relaxed))
      return false;
    E->install(std::move(Code), FeedbackHash);
    return true;
  }

  /// Creates the entry for \p K (the caller publishes code into it), or
  /// returns null when it does not fit. Writer lock required.
  Entry *insert(const Key &K) {
    assert(Writer.load(std::memory_order_relaxed) ==
               std::this_thread::get_id() &&
           "CodeTable::insert without the writer lock");
    if (fullFor(K))
      return nullptr;
    Owned.push_back(std::make_unique<Entry>(K));
    Entry *E = Owned.back().get();
    if (obs::traceOn())
      obs::traceEvent(obs::TraceEv::VersionCreate, 0, E->ObsId,
                      static_cast<uint64_t>(Key::Kind));

    // Linearize the partial order: more specialized entries first (insert
    // before the first entry whose code K may run). Readers keep scanning
    // the old snapshot while the new one is published.
    const std::vector<Entry *> &Cur = entries();
    size_t Pos = 0;
    while (Pos < Cur.size() && !(K <= Cur[Pos]->Ctx))
      ++Pos;
    auto Next = std::make_unique<std::vector<Entry *>>();
    Next->reserve(Cur.size() + 1);
    Next->insert(Next->end(), Cur.begin(), Cur.begin() + Pos);
    Next->push_back(E);
    Next->insert(Next->end(), Cur.begin() + Pos, Cur.end());
    Superseded.emplace_back(&Cur);
    Pub.store(Next.release(), std::memory_order_release);
    return E;
  }

  /// The writer lock (BasicLockable): serializes insert, publish, retire
  /// and failure marks against publication from compiler threads.
  /// Lookups never take it.
  void lock() {
    WriterMu.lock();
    Writer.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }
  void unlock() {
    Writer.store(std::thread::id(), std::memory_order_relaxed);
    WriterMu.unlock();
  }

private:
  std::atomic<const std::vector<Entry *> *> Pub{new std::vector<Entry *>()};
  const uint32_t Cap;
  std::mutex WriterMu;
  /// Guarded by WriterMu: the snapshots readers may still scan, and the
  /// entries.
  std::vector<std::unique_ptr<const std::vector<Entry *>>> Superseded;
  std::vector<std::unique_ptr<Entry>> Owned;
  std::atomic<std::thread::id> Writer{}; ///< single-writer assertion
};

} // namespace rjit

#endif // RJIT_DISPATCH_TABLE_H
