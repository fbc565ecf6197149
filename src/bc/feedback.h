//===-- bc/feedback.h - Run-time profiling feedback --------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Type, call-target and branch feedback recorded by the baseline
/// interpreter, consumed by the optimizer to place Assume speculations.
/// The deoptless feedback cleanup pass (paper §4.3 "Incomplete Profile
/// Data") operates on copies of these tables: marking entries stale,
/// injecting observed types, and re-inferring the rest.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_BC_FEEDBACK_H
#define RJIT_BC_FEEDBACK_H

#include "runtime/value.h"

#include <cstdint>
#include <vector>

namespace rjit {

/// Set of dynamic tags observed at one program point.
struct TypeFeedback {
  uint16_t SeenMask = 0;
  uint32_t Hits = 0;
  bool Stale = false; ///< set by the deoptless cleanup pass

  void record(Tag T) {
    SeenMask |= static_cast<uint16_t>(1u << static_cast<unsigned>(T));
    ++Hits;
  }
  bool seen(Tag T) const {
    return SeenMask & static_cast<uint16_t>(1u << static_cast<unsigned>(T));
  }
  bool empty() const { return SeenMask == 0; }
  bool monomorphic() const {
    return SeenMask != 0 && (SeenMask & (SeenMask - 1)) == 0;
  }
  Tag uniqueTag() const {
    assert(monomorphic() && "not monomorphic");
    unsigned B = 0;
    uint16_t M = SeenMask;
    while (!(M & 1)) {
      M >>= 1;
      ++B;
    }
    return static_cast<Tag>(B);
  }
  /// Replaces the profile with exactly \p T (used by feedback injection).
  void reset(Tag T) {
    SeenMask = static_cast<uint16_t>(1u << static_cast<unsigned>(T));
    Hits = 1;
    Stale = false;
  }
  void clear() {
    SeenMask = 0;
    Hits = 0;
    Stale = true;
  }
};

/// Bound on per-argument call-site profiling; argument slots beyond it
/// stay unprofiled (and contextual dispatch leaves them untyped).
inline constexpr unsigned MaxProfiledArgs = 8;

/// Call-target profile: monomorphic closure / builtin or megamorphic.
/// Also records the caller-side optimization context (argument-tag sets
/// and arity) contextual dispatch consumes.
struct CallFeedback {
  const void *Target = nullptr; ///< Function* of a closure callee
  uint16_t BuiltinIdPlus1 = 0;  ///< builtin id + 1 when callee is a builtin
  bool Megamorphic = false;
  uint32_t Hits = 0;

  static constexpr uint8_t NoArity = 0xFF;   ///< no call observed yet
  static constexpr uint8_t PolyArity = 0xFE; ///< varying argument counts
  uint8_t SeenArity = NoArity;
  /// Per-argument observed-tag sets (TypeFeedback-style masks).
  uint16_t ArgMask[MaxProfiledArgs] = {};

  /// Records the caller's context: arity and the dynamic tag of each
  /// argument (computed at the call site by the baseline interpreter).
  void recordContext(const std::vector<Value> &Args) {
    uint8_t A = Args.size() >= PolyArity
                    ? PolyArity
                    : static_cast<uint8_t>(Args.size());
    if (SeenArity == NoArity)
      SeenArity = A;
    else if (SeenArity != A)
      SeenArity = PolyArity;
    for (size_t K = 0; K < Args.size() && K < MaxProfiledArgs; ++K)
      ArgMask[K] |=
          static_cast<uint16_t>(1u << static_cast<unsigned>(Args[K].tag()));
  }

  void recordClosure(const void *Fn) {
    ++Hits;
    if (BuiltinIdPlus1 != 0 || (Target && Target != Fn)) {
      Megamorphic = true;
      return;
    }
    Target = Fn;
  }
  void recordBuiltin(uint16_t Id) {
    ++Hits;
    if (Target || (BuiltinIdPlus1 != 0 && BuiltinIdPlus1 != Id + 1u)) {
      Megamorphic = true;
      return;
    }
    BuiltinIdPlus1 = static_cast<uint16_t>(Id + 1);
  }
  bool monomorphicClosure() const {
    return !Megamorphic && Target != nullptr;
  }
};

/// Branch / backedge counters (also the OSR-in trigger).
struct BranchFeedback {
  uint32_t Taken = 0;
  uint32_t NotTaken = 0;
};

/// All feedback of one function, indexed by the B operand of instructions.
struct FeedbackTable {
  std::vector<TypeFeedback> Types;
  std::vector<CallFeedback> Calls;
  std::vector<BranchFeedback> Branches;

  int32_t newTypeSlot() {
    Types.emplace_back();
    return static_cast<int32_t>(Types.size() - 1);
  }
  int32_t newTypeSlotPair() {
    Types.emplace_back();
    Types.emplace_back();
    return static_cast<int32_t>(Types.size() - 2);
  }
  int32_t newCallSlot() {
    Calls.emplace_back();
    return static_cast<int32_t>(Calls.size() - 1);
  }
  int32_t newBranchSlot() {
    Branches.emplace_back();
    return static_cast<int32_t>(Branches.size() - 1);
  }
};

} // namespace rjit

#endif // RJIT_BC_FEEDBACK_H
