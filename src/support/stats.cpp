//===-- support/stats.cpp - VM event counters -----------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/stats.h"

using namespace rjit;

VmStats VmStats::operator-(const VmStats &O) const {
  VmStats R = *this;
#define VM_COUNTER(Member, Name) R.Member = Member - O.Member;
#include "support/stats.def"
  for (size_t K = 0; K < MaxLowOps; ++K)
    R.NativeHelperCallsByOp[K] =
        NativeHelperCallsByOp[K] - O.NativeHelperCallsByOp[K];
  return R;
}

VmStats &VmStats::operator+=(const VmStats &O) {
#define VM_COUNTER(Member, Name) Member += O.Member;
#define VM_GAUGE(Member, Name)                                                 \
  Member.setLevel(O.Member.highWater());                                       \
  Member.setLevel(O.Member.value());
#include "support/stats.def"
  for (size_t K = 0; K < MaxLowOps; ++K)
    NativeHelperCallsByOp[K] += O.NativeHelperCallsByOp[K];
  return *this;
}
