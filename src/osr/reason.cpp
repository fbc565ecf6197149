//===-- osr/reason.cpp - Deopt reasons & contexts -------------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "osr/reason.h"
#include "support/fnv.h"

using namespace rjit;

bool DeoptContext::operator<=(const DeoptContext &O) const {
  // Contexts are only comparable for the same deoptimization target, the
  // same operand stack height, the same local names, and a compatible
  // reason (paper §3.1).
  if (Pc != O.Pc || StackSize != O.StackSize || EnvSize != O.EnvSize)
    return false;
  if (Reason.Kind != O.Reason.Kind || Reason.ReasonPc != O.Reason.ReasonPc)
    return false;
  switch (Reason.Kind) {
  case DeoptReasonKind::Typecheck:
    if (!tagCompatible(Reason.ActualTag, O.Reason.ActualTag))
      return false;
    break;
  case DeoptReasonKind::CallTarget:
    if (Reason.ActualFn != O.Reason.ActualFn)
      return false;
    break;
  case DeoptReasonKind::BuiltinGuard:
    return false; // global redefinitions invalidate for good
  case DeoptReasonKind::Injected:
    break; // the guarded fact still holds; any injected context matches
  }
  for (unsigned K = 0; K < StackSize; ++K)
    if (!tagCompatible(StackTags[K], O.StackTags[K]))
      return false;
  for (unsigned K = 0; K < EnvSize; ++K) {
    if (EnvEntries[K].first != O.EnvEntries[K].first)
      return false;
    if (!tagCompatible(EnvEntries[K].second, O.EnvEntries[K].second))
      return false;
  }
  return true;
}

uint64_t DeoptContext::hash() const {
  FnvHasher H;
  H.mix(static_cast<uint64_t>(Pc));
  H.mix(static_cast<uint64_t>(Reason.Kind));
  H.mix(static_cast<uint64_t>(Reason.ReasonPc));
  H.mix(static_cast<uint64_t>(Reason.FailedSlot));
  H.mix(static_cast<uint64_t>(Reason.ActualTag));
  H.mix(reinterpret_cast<uintptr_t>(Reason.ActualFn));
  H.mix(StackSize);
  for (unsigned K = 0; K < StackSize; ++K)
    H.mix(static_cast<uint64_t>(StackTags[K]));
  H.mix(EnvSize);
  for (unsigned K = 0; K < EnvSize; ++K) {
    H.mix(EnvEntries[K].first);
    H.mix(static_cast<uint64_t>(EnvEntries[K].second));
  }
  return H.H;
}

std::string DeoptContext::str() const {
  std::string S = "ctx pc=" + std::to_string(Pc) + " reason=";
  S += deoptReasonName(Reason.Kind);
  S += "@" + std::to_string(Reason.ReasonPc);
  if (Reason.Kind == DeoptReasonKind::Typecheck ||
      Reason.Kind == DeoptReasonKind::Injected)
    S += std::string("(") + tagName(Reason.ActualTag) + ")";
  S += " stack=[";
  for (unsigned K = 0; K < StackSize; ++K) {
    if (K)
      S += ",";
    S += tagName(StackTags[K]);
  }
  S += "] env={";
  for (unsigned K = 0; K < EnvSize; ++K) {
    if (K)
      S += ",";
    S += symbolName(EnvEntries[K].first) + std::string(":") +
         tagName(EnvEntries[K].second);
  }
  S += "}";
  return S;
}
