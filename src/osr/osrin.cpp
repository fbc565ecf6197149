//===-- osr/osrin.cpp - OSR-in (tiering up) -------------------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "osr/osrin.h"
#include "obs/trace.h"
#include "runtime/context.h"
#include "support/fnv.h"

using namespace rjit;

EntryState rjit::buildOsrEntryState(Function *Fn, Env *E,
                                    const std::vector<Value> &Stack,
                                    int32_t Pc) {
  // The entry state is exact: the interpreter hands us concrete values.
  EntryState Entry;
  Entry.Pc = Pc;
  for (const Value &V : Stack)
    Entry.StackTypes.push_back(V.isNull() ? RType::of(Tag::Null)
                                          : RType::of(V.tag()));
  if (envIsElidable(*Fn)) {
    for (const auto &[Sym, V] : E->bindings())
      Entry.EnvTypes.push_back(
          {Sym, V.isNull() ? RType::of(Tag::Null) : RType::of(V.tag())});
  }
  return Entry;
}

OsrKey::OsrKey(const EntryState &Entry) : Pc(Entry.Pc) {
  Sig.reserve(1 + Entry.StackTypes.size() + 2 * Entry.EnvTypes.size());
  Sig.push_back(static_cast<uint32_t>(Entry.StackTypes.size()));
  for (const RType &T : Entry.StackTypes)
    Sig.push_back(T.rawMask());
  for (const auto &[Sym, T] : Entry.EnvTypes) {
    Sig.push_back(Sym);
    Sig.push_back(T.rawMask());
  }
}

uint64_t OsrKey::hash() const {
  FnvHasher H;
  H.mix(static_cast<uint64_t>(Pc));
  for (uint32_t X : Sig)
    H.mix(X);
  return H.H;
}

Value rjit::enterOsrContinuation(ExecutableCode &Code,
                                 const EntryState &Entry, Env *E,
                                 std::vector<Value> &Stack) {
  // The interpreter's live values become arguments: stack first, then (for
  // elided code) the environment bindings in the entry order.
  const LowFunction &Low = Code.low();
  std::vector<Value> Args;
  Args.reserve(Stack.size() + Entry.EnvTypes.size());
  for (Value &V : Stack)
    Args.push_back(V);
  if (!Low.NeedsEnv)
    for (const auto &[Sym, T] : Entry.EnvTypes)
      Args.push_back(E->get(Sym));

  ++stats().OsrInEntries;
  if (obs::traceOn())
    obs::traceEvent(obs::TraceEv::OsrIn, 0,
                    static_cast<uint64_t>(Entry.Pc));
  return Code.run(std::move(Args), Low.NeedsEnv ? E : nullptr,
                  E->parent());
}
