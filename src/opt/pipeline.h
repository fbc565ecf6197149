//===-- opt/pipeline.h - Optimization pipeline -------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the optimizer: translate (with inline speculation), then iterate
/// type inference, typed-op strength reduction, constant folding and dead
/// code elimination to a fixpoint; then the loop layer (peeling of
/// type-unstable loops, a fixpoint to retype them, LICM and guard
/// hoisting, another fixpoint), and verify.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OPT_PIPELINE_H
#define RJIT_OPT_PIPELINE_H

#include "opt/translate.h"

namespace rjit {

/// Compiles \p Fn to optimized IR. Returns null when the requested calling
/// convention is not supported for this function (see translate()).
/// On internal IR verification failure, also returns null — callers fall
/// back to the baseline tier.
std::unique_ptr<IrCode> optimizeToIr(Function *Fn, CallConv Conv,
                                     const EntryState &Entry,
                                     const OptOptions &Opts);

} // namespace rjit

#endif // RJIT_OPT_PIPELINE_H
