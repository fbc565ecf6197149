//===-- opt/peel.h - Peeling type-unstable loops -----------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop peeling for loop-carried values whose kind changes after the first
/// iteration. The paper's Fig. 4 accumulator starts as `total <- 0L` and
/// adds doubles: the loop-header phi merges an int (the entry) with a
/// double (the back-edge), so every compile keeps `total` boxed and runs
/// the generic `+`. Peeling one iteration in front of the loop makes the
/// phi's entry operand the peeled iteration's result, a double, and the
/// loop proper type-stable. This is LuaJIT's LOOP optimization in
/// miniature: copy-substitute one iteration so that loop-carried types are
/// invariant in the loop.
///
/// A natural loop is peeled when
///  * some header phi's entry operand is one scalar kind (logical,
///    integer, double, complex) and its back-edge operands join to one
///    different scalar kind;
///  * every exit leaves from the header, and there is exactly one; and
///  * the body holds at most MaxPeelSize instructions.
///
/// The peeled copy starts with the copy of the header, so the loop test
/// runs first and a zero-trip loop still returns the entry value. Copied
/// frame states keep their bytecode pcs and capture the first iteration's
/// values, so a guard failing in either copy resumes at the right pc. A
/// fresh block on the exit edge merges the two copies' header values for
/// their uses beyond the loop.
///
/// The decision reads inference's phi types, so the pipeline runs the pass
/// between two inference fixpoints: typed lowering, LICM and guard
/// hoisting then see the type-stable loop.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OPT_PEEL_H
#define RJIT_OPT_PEEL_H

#include "ir/instr.h"

namespace rjit {

/// Peels one iteration of every loop of \p C that qualifies (see above).
/// Returns the number of loops peeled.
uint32_t peelLoops(IrCode &C);

} // namespace rjit

#endif // RJIT_OPT_PEEL_H
