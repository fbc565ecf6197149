//===-- dispatch/context.cpp - Call-site optimization contexts -----------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "dispatch/context.h"
#include "support/fnv.h"

#include <sstream>

using namespace rjit;

bool CallContext::operator<=(const CallContext &O) const {
  if (Arity != O.Arity)
    return false; // different arities never share a version
  if ((Flags & O.Flags) != O.Flags)
    return false; // the version assumes a fact this call cannot guarantee
  for (unsigned K = 0; K < MaxProfiledArgs; ++K) {
    if (!(O.TypedMask & (1u << K)))
      continue; // the version accepts any type here
    if (!(TypedMask & (1u << K)))
      return false; // it assumes a type this call does not know
    if (!tagCompatible(ArgTags[K], O.ArgTags[K]))
      return false;
  }
  return true;
}

bool CallContext::operator==(const CallContext &O) const {
  if (Arity != O.Arity || Flags != O.Flags || TypedMask != O.TypedMask)
    return false;
  for (unsigned K = 0; K < MaxProfiledArgs; ++K)
    if ((TypedMask & (1u << K)) && ArgTags[K] != O.ArgTags[K])
      return false;
  return true;
}

uint64_t CallContext::hash() const {
  FnvHasher H;
  H.mix(Arity);
  H.mix(Flags);
  H.mix(TypedMask);
  for (unsigned K = 0; K < MaxProfiledArgs; ++K)
    H.mix(static_cast<uint64_t>(ArgTags[K]));
  return H.H;
}

std::string CallContext::str() const {
  std::ostringstream S;
  S << "[arity=" << static_cast<unsigned>(Arity);
  if (Flags & CtxCorrectArity)
    S << " !adapt";
  if (Flags & CtxNoMissingArgs)
    S << " !miss";
  S << " (";
  for (unsigned K = 0; K < Arity && K < MaxProfiledArgs; ++K) {
    if (K)
      S << " ";
    S << (typed(K) ? tagName(ArgTags[K]) : "any");
  }
  S << ")]";
  return S.str();
}

CallContext rjit::computeCallContext(const std::vector<Value> &Args,
                                     size_t NumParams) {
  CallContext C;
  C.Arity = static_cast<uint8_t>(
      Args.size() > 0xFF ? 0xFF : Args.size());
  if (Args.size() == NumParams)
    C.Flags |= CtxCorrectArity;
  bool Missing = false;
  for (size_t K = 0; K < Args.size(); ++K) {
    Tag T = Args[K].tag();
    if (T == Tag::Null) {
      Missing = true;
      continue; // a hole stays untyped: Null has no useful specialization
    }
    if (K < MaxProfiledArgs) {
      C.TypedMask |= static_cast<uint8_t>(1u << K);
      C.ArgTags[K] = T;
    }
  }
  if (!Missing)
    C.Flags |= CtxNoMissingArgs;
  return C;
}

CallContext rjit::genericContext(size_t NumParams) {
  CallContext C;
  C.Arity = static_cast<uint8_t>(
      NumParams > 0xFF ? 0xFF : NumParams);
  C.Flags = CtxCorrectArity; // the tier manager validates arity on dispatch
  return C;
}
