//===- gcheap.h - Cycle collector over refcounted runtime values ----------===//
//
// Refcounting alone cannot reclaim reference cycles, and the language makes
// one trivially: any closure defined inside a function is bound in the very
// environment it captures (Env's binding retains the ClosObj; the ClosObj
// retains its Enclosing Env). GcHeap is the per-Vm registry + stop-the-world
// mark-sweep that reclaims those cycles.
//
// Design: trial deletion over a registry of cycle-capable objects.
//
//  - Only the types that can hold counted references to other GcObjects
//    (Env, ClosObj, ListObj) register themselves; scalar vectors and strings
//    cannot participate in a cycle and stay pure-refcount.
//  - Registration goes to the heap of the thread's execution context
//    (runtime/context.h; the owning Vm installs its context). Compiler
//    threads run in the process default context, which has no heap, so
//    anything they allocate is unregistered — the pinning rule for
//    compiler-held code constants falls out for free: a reference from an
//    unregistered holder is by definition external.
//  - collect() derives the root set instead of enumerating VM structures:
//    for each registered object, ExternalRefs = RefCount minus the number of
//    references to it from *other registered objects* (counted via gcTrace).
//    Every root location the VM owns — the global env, interpreter frame
//    stacks and boxed slots, OSR/deoptless materialization state, graveyard
//    and compiler-held code constants — holds an ordinary counted reference,
//    so any object with ExternalRefs > 0 is reachable from outside the
//    registry and seeds the mark. Unmarked survivors are unreachable cycles.
//  - Sweep protocol: guard-retain every garbage object, gcClear() each one
//    (dropping its outgoing references and nulling the fields so destructors
//    do not double-release), then release the guards. After the clears each
//    garbage object's refcount is exactly the guard, so release deletes it.
//
// Single-threaded by construction: a GcHeap belongs to one Vm and is only
// touched from its executor thread, at the vmDispatchCall dispatch-boundary
// safepoint where frames are in a known boxed state.
//
//===----------------------------------------------------------------------===//

#ifndef RJIT_RUNTIME_GCHEAP_H
#define RJIT_RUNTIME_GCHEAP_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rjit {

class GcObject;

class GcHeap {
public:
  struct CollectStats {
    uint64_t Registered = 0; ///< objects in the registry when the pass ran
    uint64_t Collected = 0;  ///< unreachable cycle members reclaimed
    uint64_t FreedBytes = 0; ///< LiveBytes drop across the sweep
  };

  GcHeap() = default;
  GcHeap(const GcHeap &) = delete;
  GcHeap &operator=(const GcHeap &) = delete;
  ~GcHeap();

  /// Allocation-pressure trigger: trackAlloc feeds every value-heap byte
  /// allocated on this thread here; the safepoint collects once the
  /// accumulated pressure crosses the Vm's configured threshold.
  void noteAllocated(uint64_t Bytes) { BytesSinceCollect += Bytes; }
  bool shouldCollect(uint64_t ThresholdBytes) const {
    return BytesSinceCollect >= ThresholdBytes;
  }

  /// Stop-the-world trial-deletion mark-sweep. Frees only objects that are
  /// unreachable from outside the registry, so it is observably inert:
  /// program transcripts are byte-identical with collection on or off.
  CollectStats collect();

  /// Teardown: detach every surviving object from the registry without
  /// freeing it. Values that legitimately escaped the Vm (e.g. eval results
  /// held by the embedder) keep working under plain refcounting.
  void orphanAll();

  size_t size() const { return Objects.size(); }

  /// Registry slot of an enrolled object (collector bookkeeping).
  static uint32_t slotOf(const GcObject *O);

private:
  friend class GcObject;
  void add(GcObject *O);
  void remove(GcObject *O);

  std::vector<GcObject *> Objects;
  uint64_t BytesSinceCollect = 0;
};

} // namespace rjit

#endif // RJIT_RUNTIME_GCHEAP_H
