//===-- dispatch/version.cpp - Per-function version tables ---------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "dispatch/version.h"

#include <cassert>

using namespace rjit;

FnVersion *VersionTable::dispatch(const CallContext &Ctx) {
  // Most-specialized-first scan for the first compatible live entry, the
  // same discipline as DeoptlessTable::dispatch. The snapshot is immutable
  // and the code pointer is an acquire load, so this is safe against a
  // compiler thread publishing concurrently.
  for (FnVersion *E : snapshot())
    if (E->live() && !E->Blacklisted.load(std::memory_order_relaxed) &&
        Ctx <= E->Ctx)
      return E;
  return nullptr;
}

FnVersion *VersionTable::exact(const CallContext &Ctx) {
  for (FnVersion *E : snapshot())
    if (E->Ctx == Ctx)
      return E;
  return nullptr;
}

size_t VersionTable::liveCount() const {
  size_t N = 0;
  for (FnVersion *E : snapshot())
    if (E->live())
      ++N;
  return N;
}

bool VersionTable::fullFor(const CallContext &Ctx) const {
  if (Ctx.isGeneric())
    return false; // the root is always admissible (and unique)
  size_t Specialized = 0;
  for (FnVersion *E : snapshot())
    if (!E->Ctx.isGeneric())
      ++Specialized;
  return Specialized >= Cap;
}

FnVersion *VersionTable::insert(const CallContext &Ctx) {
  assert(writerHeld() && "VersionTable::insert without a VersionWriteGuard");
  if (fullFor(Ctx))
    return nullptr;
  auto E = std::make_unique<FnVersion>();
  E->Ctx = Ctx;
  if (obs::traceOn())
    obs::traceEvent(obs::TraceEv::VersionCreate, 0, E->ObsId);

  // Linearize the partial order: more specialized entries first (insert
  // before the first entry the new context is not below); the CowList
  // publishes the new order while readers keep scanning the old one.
  const std::vector<FnVersion *> &Cur = snapshot();
  size_t Pos = 0;
  while (Pos < Cur.size() && !(Ctx <= Cur[Pos]->Ctx))
    ++Pos;
  return List.insertAt(Pos, std::move(E));
}

FnVersion *VersionTable::owner(const LowFunction *Code) {
  if (!Code)
    return nullptr;
  for (FnVersion *E : snapshot())
    if (ExecutableCode *X = E->code())
      if (X->lowPtr() == Code)
        return E;
  return nullptr;
}

FnVersion *VersionTable::mostGenericLive() {
  const std::vector<FnVersion *> &S = snapshot();
  for (auto It = S.rbegin(); It != S.rend(); ++It)
    if ((*It)->live())
      return *It;
  return nullptr;
}
