//===-- ir/type.h - Optimizer type lattice -----------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimizer's type lattice: a set of possible dynamic tags. Mirrors
/// the property the paper's context dispatch relies on (§3.1): R scalars
/// are vectors of length one, so a scalar tag is a *subtype* of its vector
/// tag — a continuation compiled for a float vector is compatible when a
/// scalar float shows up.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_IR_TYPE_H
#define RJIT_IR_TYPE_H

#include "bc/feedback.h"
#include "runtime/value.h"

#include <string>

namespace rjit {

/// A set of dynamic tags with subset ordering (plus the scalar <= vector
/// rule). The lattice is finite: join is union, meet is intersection.
class RType {
public:
  /// The empty (unreachable) type.
  static RType none() { return RType(0); }
  /// Any value at all.
  static RType any() { return RType(AllMask); }
  /// Exactly one tag.
  static RType of(Tag T) { return RType(bit(T)); }
  /// A scalar-or-vector numeric kind (e.g. {Real, RealVec}).
  static RType numeric(Tag ScalarT) {
    return RType(static_cast<uint16_t>(bit(ScalarT) | bit(vectorTagOf(ScalarT))));
  }
  /// Union of every tag recorded in \p FB; any() when empty.
  static RType fromFeedback(const TypeFeedback &FB) {
    if (FB.empty() || FB.Stale)
      return any();
    return RType(FB.SeenMask);
  }

  bool operator==(const RType &O) const { return Mask == O.Mask; }
  bool operator!=(const RType &O) const { return Mask != O.Mask; }

  bool isNone() const { return Mask == 0; }
  bool isAny() const { return Mask == AllMask; }

  RType join(RType O) const {
    return RType(static_cast<uint16_t>(Mask | O.Mask));
  }
  RType meet(RType O) const {
    return RType(static_cast<uint16_t>(Mask & O.Mask));
  }

  /// Subtype test with the scalar<=vector closure: a type whose scalar tag
  /// appears is also accepted where the corresponding vector tag is allowed.
  bool subtypeOf(RType O) const {
    return (Mask & ~O.widened()) == 0;
  }

  bool contains(Tag T) const { return Mask & bit(T); }

  /// The numeric kind (Lgl, Int, Real or Cplx) whose scalar and vector
  /// hold every value of this type, or Tag::Null when none does. R's
  /// scalars are length-one vectors, so `Real|RealVec` is of kind Real.
  Tag numericKind() const {
    if (isNone())
      return Tag::Null;
    for (Tag K : {Tag::Lgl, Tag::Int, Tag::Real, Tag::Cplx})
      if (subtypeOf(RType::of(vectorTagOf(K))))
        return K;
    return Tag::Null;
  }

  /// True when the type is exactly one tag.
  bool isExactly(Tag T) const { return Mask == bit(T); }

  /// The single tag, when precise; Tag::Null otherwise (check first!).
  bool precise() const { return Mask != 0 && (Mask & (Mask - 1)) == 0; }
  Tag uniqueTag() const {
    assert(precise() && "type is not a single tag");
    unsigned B = 0;
    uint16_t M = Mask;
    while (!(M & 1)) {
      M >>= 1;
      ++B;
    }
    return static_cast<Tag>(B);
  }

  /// True if every value is numeric (scalar or vector, any kind).
  bool numericOnly() const {
    const uint16_t NumMask =
        bit(Tag::Lgl) | bit(Tag::Int) | bit(Tag::Real) | bit(Tag::Cplx) |
        bit(Tag::LglVec) | bit(Tag::IntVec) | bit(Tag::RealVec) |
        bit(Tag::CplxVec);
    return Mask != 0 && (Mask & ~NumMask) == 0;
  }

  uint16_t rawMask() const { return Mask; }

  std::string str() const;

private:
  explicit RType(uint16_t Mask) : Mask(Mask) {}

  static constexpr uint16_t bit(Tag T) {
    return static_cast<uint16_t>(1u << static_cast<unsigned>(T));
  }
  static constexpr uint16_t AllMask =
      static_cast<uint16_t>((1u << NumTags) - 1);

  /// Mask closure for subtypeOf: vector tags also admit their scalars.
  uint16_t widened() const {
    uint16_t W = Mask;
    if (W & bit(Tag::LglVec))
      W |= bit(Tag::Lgl);
    if (W & bit(Tag::IntVec))
      W |= bit(Tag::Int);
    if (W & bit(Tag::RealVec))
      W |= bit(Tag::Real);
    if (W & bit(Tag::CplxVec))
      W |= bit(Tag::Cplx);
    return W;
  }

  uint16_t Mask;
};

} // namespace rjit

#endif // RJIT_IR_TYPE_H
