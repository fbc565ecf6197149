//===-- lowcode/lower.h - IR to LowCode lowering -----------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers optimizer IR to LowCode: slot allocation (one slot per SSA
/// value; CastType aliases its operand), phi elimination via parallel
/// copies on edges (with trampoline blocks for critical edges), call
/// argument windows, DeoptMeta construction from Assume/Checkpoint/
/// FrameState triples, and last-use moves of boxed values (element-store
/// containers and phi edge moves) from a liveness pass over boxed slots.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_LOWCODE_LOWER_H
#define RJIT_LOWCODE_LOWER_H

#include "lowcode/lowcode.h"

#include <memory>

namespace rjit {

/// Lowers \p C; never fails for verified IR.
std::unique_ptr<LowFunction> lowerToLow(const IrCode &C);

} // namespace rjit

#endif // RJIT_LOWCODE_LOWER_H
