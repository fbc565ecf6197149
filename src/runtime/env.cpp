//===-- runtime/env.cpp - First-class environments -------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/env.h"
#include "runtime/context.h"

using namespace rjit;

Env::Env(Env *Parent) : Parent(Parent) {
  if (Parent)
    Parent->retain();
  trackAlloc(64);
  enrollGc();
}

Env::~Env() {
  if (Parent)
    Parent->release();
}

void Env::gcTrace(GcVisitor &V) const {
  if (Parent)
    V.visit(Parent);
  for (const auto &B : Bindings)
    if (GcObject *O = B.second.heapPayload())
      V.visit(O);
}

void Env::gcClear() {
  Bindings.clear();
  if (Parent) {
    Parent->release();
    Parent = nullptr;
  }
}

const Value &Env::get(Symbol S) const {
  for (const Env *E = this; E; E = E->Parent)
    if (const Value *V = E->findLocal(S))
      return *V;
  rerror("object '" + symbolName(S) + "' not found");
}

Value *Env::findLocal(Symbol S) {
  for (auto &B : Bindings)
    if (B.first == S)
      return &B.second;
  return nullptr;
}

const Value *Env::findLocal(Symbol S) const {
  for (const auto &B : Bindings)
    if (B.first == S)
      return &B.second;
  return nullptr;
}

void Env::overwrite(Symbol S, Value &Slot, Value V) {
  // Only the global environment has no parent, and only a builtin leaving
  // or entering a binding there concerns the builtin watch.
  if (!Parent && (Slot.tag() == Tag::Builtin || V.tag() == Tag::Builtin))
    if (auto *Rebind = currentContext().Watch.Rebind)
      Rebind(S, Slot, V);
  Slot = std::move(V);
}

void Env::set(Symbol S, Value V) {
  if (Value *Slot = findLocal(S)) {
    overwrite(S, *Slot, std::move(V));
    return;
  }
  Bindings.emplace_back(S, std::move(V));
}

void Env::setSuper(Symbol S, Value V) {
  if (Parent)
    Parent->setNearest(S, std::move(V));
  else
    set(S, std::move(V));
}

void Env::setNearest(Symbol S, Value V) {
  Env *E = this;
  for (;; E = E->Parent) {
    if (Value *Slot = E->findLocal(S)) {
      E->overwrite(S, *Slot, std::move(V));
      return;
    }
    if (!E->Parent)
      break;
  }
  // Unbound anywhere: define in the outermost environment, like R's
  // assignment into globalenv().
  E->set(S, std::move(V));
}

Value &Env::updateSlot(Symbol S) {
  if (Value *Slot = findLocal(S))
    return *Slot;
  set(S, get(S));
  return Bindings.back().second;
}
