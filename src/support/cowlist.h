//===-- support/cowlist.h - Copy-on-write published list ---------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The publication primitive of the background-compilation subsystem: an
/// ordered list whose element sequence is published as an immutable
/// snapshot. Readers take one acquire load and scan without locks — the
/// executor's dispatch paths; a writer (under external mutual exclusion)
/// builds the next snapshot aside and installs it with a release store —
/// the compiler threads' publication. Superseded snapshots are retired,
/// not freed, until destruction, so a reader mid-scan never sees its
/// snapshot die; elements are owned by the list and never move or leave.
/// What it retains stays bounded because each user bounds its inserts:
/// VersionTable (dispatch/: MaxVersions plus the generic root) and
/// DeoptlessTable (osr/: MaxContinuations) share it so the memory-ordering
/// discipline exists exactly once. A store that drops entries, like
/// compile/'s OsrCache, must not use it.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_SUPPORT_COWLIST_H
#define RJIT_SUPPORT_COWLIST_H

#include <atomic>
#include <memory>
#include <vector>

namespace rjit {

template <typename T> class CowList {
public:
  using Order = std::vector<T *>;

  CowList() { Pub.store(new Order(), std::memory_order_relaxed); }
  ~CowList() { delete Pub.load(std::memory_order_relaxed); }
  CowList(const CowList &) = delete;
  CowList &operator=(const CowList &) = delete;

  /// The current snapshot (acquire). Valid for the list's lifetime.
  const Order &read() const {
    return *Pub.load(std::memory_order_acquire);
  }

  /// Takes ownership of \p E and publishes it at position \p Pos of the
  /// next snapshot (release). Caller provides mutual exclusion between
  /// writers; readers need none.
  T *insertAt(size_t Pos, std::unique_ptr<T> E) {
    const Order &Cur = read();
    T *Raw = E.get();
    Owned.push_back(std::move(E));
    auto Next = std::make_unique<Order>();
    Next->reserve(Cur.size() + 1);
    Next->insert(Next->end(), Cur.begin(), Cur.begin() + Pos);
    Next->push_back(Raw);
    Next->insert(Next->end(), Cur.begin() + Pos, Cur.end());
    Retired.emplace_back(Pub.load(std::memory_order_relaxed));
    Pub.store(Next.release(), std::memory_order_release);
    return Raw;
  }

private:
  std::atomic<const Order *> Pub;
  std::vector<std::unique_ptr<const Order>> Retired; ///< writer-guarded
  std::vector<std::unique_ptr<T>> Owned;             ///< writer-guarded
};

} // namespace rjit

#endif // RJIT_SUPPORT_COWLIST_H
