//===-- dispatch/context.h - Call-site optimization contexts ----*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Contextual dispatch for function *entries*: the generalization of the
/// deoptless DeoptContext (osr/reason.h) from deopt exits to call sites,
/// following Ř's contextual dispatch. A CallContext captures what the
/// caller can guarantee about an invocation — arity, per-argument dynamic
/// tags and a small set of assumption flags — and versions of a function
/// are compiled against a context. Contexts are partially ordered;
/// `A <= B` means an invocation in state A may run a version compiled for
/// context B. Argument types compare with the same scalar <= vector rule
/// (tagCompatible) the deoptless contexts use.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_DISPATCH_CONTEXT_H
#define RJIT_DISPATCH_CONTEXT_H

#include "bc/feedback.h"
#include "obs/trace.h"
#include "osr/reason.h"

#include <string>
#include <vector>

namespace rjit {

/// Assumption flags: facts (beyond per-argument types) the caller
/// guarantees. A version's context lists the flags it was compiled under;
/// the caller's context must include all of them (more flags = more
/// specialized).
enum CallAssumption : uint8_t {
  /// The number of arguments matches the callee's parameter count, so no
  /// argument adaptation is needed.
  CtxCorrectArity = 1 << 0,
  /// No argument is the Null value ("missing" in R terms): unboxing
  /// decisions never meet a hole.
  CtxNoMissingArgs = 1 << 1,
};

/// Bound on a function's version table: specialized versions per function.
/// The generic root is exempt, so a full table falls back to one generic
/// version.
inline constexpr uint32_t MaxVersions = 4;

/// The optimization context of one invocation, and the version table's
/// key (dispatch/table.h). Argument slots beyond MaxProfiledArgs stay
/// untyped (the same bound the call-site profile uses).
struct CallContext {
  static constexpr CompileKind Kind = CompileKind::Function;

  uint8_t Arity = 0;
  uint8_t Flags = 0;     ///< set of CallAssumption bits
  uint8_t TypedMask = 0; ///< bit K set: ArgTags[K] is a real observation
  Tag ArgTags[MaxProfiledArgs] = {};

  bool typed(unsigned K) const {
    return K < MaxProfiledArgs && (TypedMask & (1u << K));
  }

  /// True when no argument is specialized: the root of the lattice for
  /// this arity (the seed's single optimized version).
  bool isGeneric() const { return TypedMask == 0; }
  /// Only the generic root is exempt from MaxVersions.
  bool unbounded() const { return isGeneric(); }

  /// Partial order: *this may invoke a version compiled for \p O.
  bool operator<=(const CallContext &O) const;
  bool operator==(const CallContext &O) const;
  bool operator!=(const CallContext &O) const { return !(*this == O); }
  uint64_t hash() const;

  std::string str() const;
};

/// The context of an actual invocation: exact argument tags plus every
/// flag that holds for \p Args against a callee with \p NumParams
/// parameters.
CallContext computeCallContext(const std::vector<Value> &Args,
                               size_t NumParams);

/// The fully generic root context for a callee with \p NumParams
/// parameters. Versions compiled for it accept any type-correct call,
/// reproducing the seed's single-version behavior.
CallContext genericContext(size_t NumParams);

} // namespace rjit

#endif // RJIT_DISPATCH_CONTEXT_H
