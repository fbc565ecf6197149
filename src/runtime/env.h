//===-- runtime/env.h - First-class environments ----------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// R environments: mutable symbol -> value bindings with a parent chain.
/// Environments are first class (they can be stored in values) and they are
/// what OSR-out must materialize from optimized state (the paper's MkEnv
/// instruction / Listing 2). Lookup is a linear scan over a small vector —
/// deliberately interpreter-grade; optimized code elides environments
/// entirely and touches them only when deoptimizing.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_RUNTIME_ENV_H
#define RJIT_RUNTIME_ENV_H

#include "runtime/value.h"
#include "support/interner.h"

#include <utility>
#include <vector>

namespace rjit {

/// A mutable variable scope with a parent chain.
class Env : public GcObject {
public:
  /// \p Parent may be null (the global environment's parent).
  explicit Env(Env *Parent);
  ~Env() override;

  Env *parent() const { return Parent; }

  /// Looks up \p S through the parent chain; raises RError if unbound.
  const Value &get(Symbol S) const;

  /// Returns the local binding slot or null.
  Value *findLocal(Symbol S);
  const Value *findLocal(Symbol S) const;

  /// Defines or overwrites the local binding (R's <-).
  void set(Symbol S, Value V);

  /// R's <<-: assigns to the nearest enclosing binding, or defines in the
  /// outermost environment when unbound anywhere.
  void setSuper(Symbol S, Value V);

  /// The search of <<- starting here instead of at the parent: assigns to
  /// the nearest binding of \p S in this chain, or defines it in the
  /// outermost environment.
  void setNearest(Symbol S, Value V);

  /// The local binding an element store (x[[i]] <- v) updates in place,
  /// copied in from the parent chain first when \p S is not bound here
  /// (R binds the updated container locally).
  Value &updateSlot(Symbol S);

  /// True if \p S is bound locally.
  bool hasLocal(Symbol S) const { return findLocal(S) != nullptr; }

  /// Local bindings in definition order; exposed for deopt-context
  /// computation and environment materialization.
  std::vector<std::pair<Symbol, Value>> &bindings() { return Bindings; }
  const std::vector<std::pair<Symbol, Value>> &bindings() const {
    return Bindings;
  }

  size_t size() const { return Bindings.size(); }

  /// Environments are the hub of every reference cycle the language can
  /// build: bindings retain closures, closures retain their defining env.
  void gcTrace(GcVisitor &V) const override;
  void gcClear() override;

private:
  /// Every store into an existing binding: the builtin watch's O(1) test
  /// (runtime/context.h), then the store.
  void overwrite(Symbol S, Value &Slot, Value V);

  Env *Parent; ///< retained
  std::vector<std::pair<Symbol, Value>> Bindings;
};

inline Env *Value::env() const {
  assert(T == Tag::EnvTag);
  return static_cast<Env *>(P);
}

} // namespace rjit

#endif // RJIT_RUNTIME_ENV_H
