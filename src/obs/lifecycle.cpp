//===-- obs/lifecycle.cpp - Per-version lifecycle timelines ---------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/lifecycle.h"
#include "support/timer.h"

#include <algorithm>
#include <array>
#include <mutex>
#include <unordered_map>

using namespace rjit;
using namespace rjit::obs;

const char *rjit::obs::verEventName(VerEvent E) {
  static const char *Names[static_cast<size_t>(VerEvent::kCount)] = {
      "created",     "compiled", "published", "deopted",
      "blacklisted", "retired",  "reclaimed"};
  return Names[static_cast<size_t>(E)];
}

uint64_t rjit::obs::nextVersionId() {
  static std::atomic<uint64_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/// Mutex-sharded: transitions are recorded under writer locks on executor
/// threads and from compiler threads publishing concurrently; shard
/// mutexes keep the log out of their way.
class TimelineLog {
public:
  void record(uint64_t Id, VerEvent E) {
    Shard &S = shardOf(Id);
    std::lock_guard<std::mutex> L(S.Mu);
    S.Map[Id].push_back({E, nowNanos()});
  }

  std::vector<VerTransition> timeline(uint64_t Id) {
    Shard &S = shardOf(Id);
    std::lock_guard<std::mutex> L(S.Mu);
    auto It = S.Map.find(Id);
    return It == S.Map.end() ? std::vector<VerTransition>() : It->second;
  }

  std::vector<uint64_t> ids() {
    std::vector<uint64_t> R;
    for (Shard &S : Shards) {
      std::lock_guard<std::mutex> L(S.Mu);
      for (const auto &[Id, _] : S.Map)
        R.push_back(Id);
    }
    std::sort(R.begin(), R.end());
    return R;
  }

  void clear() {
    for (Shard &S : Shards) {
      std::lock_guard<std::mutex> L(S.Mu);
      S.Map.clear();
    }
  }

private:
  static constexpr size_t NumShards = 8;
  struct Shard {
    std::mutex Mu;
    std::unordered_map<uint64_t, std::vector<VerTransition>> Map;
  };
  Shard &shardOf(uint64_t Id) { return Shards[Id % NumShards]; }
  std::array<Shard, NumShards> Shards;
};

TimelineLog &log() {
  static TimelineLog L;
  return L;
}

} // namespace

void rjit::obs::recordVersionEvent(uint64_t VerId, VerEvent E) {
  if (!traceOn() || !VerId)
    return;
  log().record(VerId, E);
}

std::vector<VerTransition> rjit::obs::versionTimeline(uint64_t VerId) {
  return log().timeline(VerId);
}

std::vector<uint64_t> rjit::obs::versionIds() { return log().ids(); }

void rjit::obs::clearVersionTimelines() { log().clear(); }
