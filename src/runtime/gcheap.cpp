//===- gcheap.cpp - Cycle collector over refcounted runtime values --------===//

#include "runtime/gcheap.h"
#include "runtime/context.h"
#include "runtime/value.h"

#include <cassert>

using namespace rjit;

//===----------------------------------------------------------------------===//
// GcObject registry hooks (declared in value.h)
//===----------------------------------------------------------------------===//

void GcObject::enrollGc() {
  if (GcHeap *H = currentContext().heap())
    H->add(this);
}

void GcHeap::add(GcObject *O) {
  assert(!O->Heap && "object already enrolled");
  O->Heap = this;
  O->HeapSlot = static_cast<uint32_t>(Objects.size());
  Objects.push_back(O);
}

void GcHeap::remove(GcObject *O) {
  assert(O->Heap == this && "object enrolled elsewhere");
  assert(O->HeapSlot < Objects.size() && Objects[O->HeapSlot] == O &&
         "registry slot out of sync");
  // O(1) swap-remove; patch the slot index of the object that moved.
  GcObject *Last = Objects.back();
  Objects[O->HeapSlot] = Last;
  Last->HeapSlot = O->HeapSlot;
  Objects.pop_back();
  O->Heap = nullptr;
}

GcHeap::~GcHeap() {
  assert(Objects.empty() && "GcHeap destroyed with live registrations "
                            "(Vm teardown must collect + orphan first)");
}

void GcHeap::orphanAll() {
  for (GcObject *O : Objects)
    O->Heap = nullptr;
  Objects.clear();
  BytesSinceCollect = 0;
}

//===----------------------------------------------------------------------===//
// Collection
//===----------------------------------------------------------------------===//

namespace {

/// Phase 1: counts, for every registered object, how many references to it
/// come from other registered objects.
class CountVisitor final : public GcVisitor {
public:
  CountVisitor(const GcHeap *H, std::vector<uint32_t> &Internal)
      : H(H), Internal(Internal) {}
  void visit(GcObject *O) override {
    if (O && O->gcHeap() == H)
      ++Internal[GcHeap::slotOf(O)];
  }

private:
  const GcHeap *H;
  std::vector<uint32_t> &Internal;
};

/// Phase 2: transitively marks everything reachable from the external roots.
class MarkVisitor final : public GcVisitor {
public:
  MarkVisitor(const GcHeap *H, std::vector<uint8_t> &Marked,
              std::vector<GcObject *> &Work)
      : H(H), Marked(Marked), Work(Work) {}
  void visit(GcObject *O) override {
    if (!O || O->gcHeap() != H)
      return;
    uint32_t Slot = GcHeap::slotOf(O);
    if (!Marked[Slot]) {
      Marked[Slot] = 1;
      Work.push_back(O);
    }
  }

private:
  const GcHeap *H;
  std::vector<uint8_t> &Marked;
  std::vector<GcObject *> &Work;
};

} // namespace

uint32_t GcHeap::slotOf(const GcObject *O) { return O->HeapSlot; }

GcHeap::CollectStats GcHeap::collect() {
  CollectStats R;
  R.Registered = Objects.size();
  BytesSinceCollect = 0;
  const size_t N = Objects.size();
  if (N == 0)
    return R;

  // Phase 1: trial deletion — count the internal (registry-to-registry)
  // references. Anything whose refcount exceeds its internal count is held
  // from outside the registry: interpreter frames and boxed slots, the
  // global env handle, OSR/deoptless materialization state, code constants
  // held by published or compiler-thread-owned code. Those are the roots.
  std::vector<uint32_t> Internal(N, 0);
  CountVisitor Count(this, Internal);
  for (GcObject *O : Objects)
    O->gcTrace(Count);

  // Phase 2: mark from the roots.
  std::vector<uint8_t> Marked(N, 0);
  std::vector<GcObject *> Work;
  for (size_t K = 0; K < N; ++K) {
    assert(Objects[K]->refCount() >= Internal[K] &&
           "gcTrace reported a reference the object does not hold");
    if (Objects[K]->refCount() > Internal[K]) {
      Marked[K] = 1;
      Work.push_back(Objects[K]);
    }
  }
  MarkVisitor Mark(this, Marked, Work);
  while (!Work.empty()) {
    GcObject *O = Work.back();
    Work.pop_back();
    O->gcTrace(Mark);
  }

  // Phase 3: sweep the unmarked remainder — unreachable cycles refcounting
  // missed. Guard-retain the batch, sever every outgoing edge, then drop
  // the guards; after the clears each garbage object's refcount is exactly
  // the guard, so the release deletes it (deregistering via ~GcObject).
  std::vector<GcObject *> Garbage;
  for (size_t K = 0; K < N; ++K)
    if (!Marked[K])
      Garbage.push_back(Objects[K]);
  if (Garbage.empty())
    return R;

  uint64_t LiveBefore = heapStats().LiveBytes.load();
  for (GcObject *O : Garbage)
    O->retain();
  for (GcObject *O : Garbage)
    O->gcClear();
  for (GcObject *O : Garbage) {
    assert(O->refCount() == 1 && "garbage object still referenced after "
                                 "its cycle was severed");
    O->release();
  }
  uint64_t LiveAfter = heapStats().LiveBytes.load();

  R.Collected = Garbage.size();
  R.FreedBytes = LiveBefore > LiveAfter ? LiveBefore - LiveAfter : 0;
  return R;
}
