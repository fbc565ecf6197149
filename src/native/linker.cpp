//===-- native/linker.cpp - Direct version->version call linking ----------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "native/linker.h"
#include "dispatch/context.h"
#include "dispatch/table.h"
#include "obs/trace.h"

#include <algorithm>

using namespace rjit;

void NativeLinker::registerSite(Function *Fn, LinkSite *S) {
  std::lock_guard<std::mutex> L(Mu);
  Sites[Fn].push_back(S);
}

void NativeLinker::dropSites(const LinkSite *Begin, const LinkSite *End) {
  std::lock_guard<std::mutex> L(Mu);
  for (auto It = Sites.begin(); It != Sites.end();) {
    std::vector<LinkSite *> &V = It->second;
    V.erase(std::remove_if(V.begin(), V.end(),
                           [&](LinkSite *S) {
                             return S >= Begin && S < End;
                           }),
            V.end());
    It = V.empty() ? Sites.erase(It) : std::next(It);
  }
}

void NativeLinker::onPublish(Function *Fn, FnVersion *Ver) {
  ExecutableCode *Code = Ver->code();
  if (!Code)
    return; // lost a blacklist race; nothing to link to
  std::lock_guard<std::mutex> L(Mu);
  auto It = Sites.find(Fn);
  if (It == Sites.end())
    return;
  for (LinkSite *S : It->second) {
    S->LinkedCode.store(Code, std::memory_order_relaxed);
    // Release: an executor that observes the new Target also observes
    // LinkedCode and (transitively, via the version's own release
    // publication) the fully built executable.
    S->Target.store(Ver, std::memory_order_release);
    if (obs::traceOn())
      obs::traceEvent(obs::TraceEv::NativeLinkPatch, 0, Ver->ObsId,
                      /*B=linked*/ 1);
  }
}

void NativeLinker::onRetire(const ExecutableCode *Code) {
  std::lock_guard<std::mutex> L(Mu);
  for (auto &[Fn, V] : Sites) {
    (void)Fn;
    for (LinkSite *S : V) {
      if (S->LinkedCode.load(std::memory_order_relaxed) != Code)
        continue;
      S->Target.store(nullptr, std::memory_order_release);
      S->LinkedCode.store(nullptr, std::memory_order_relaxed);
      if (obs::traceOn())
        obs::traceEvent(obs::TraceEv::NativeLinkPatch, 0, Code->obsId(),
                        /*B=unlinked*/ 0);
    }
  }
}

size_t NativeLinker::linkedPredecessors(const ExecutableCode *Code) const {
  std::lock_guard<std::mutex> L(Mu);
  size_t N = 0;
  for (const auto &[Fn, V] : Sites) {
    (void)Fn;
    for (const LinkSite *S : V)
      if (S->LinkedCode.load(std::memory_order_relaxed) == Code)
        ++N;
  }
  return N;
}
