//===-- runtime/builtins.h - Builtin functions ------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The builtin functions of the mini-R runtime: the subset of base R the
/// paper's workloads use. Builtins are leaf calls implemented in C++; the
/// optimizer knows a few of them (length, sqrt, ...) well enough to
/// specialize, everything else stays a generic call in both tiers.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_RUNTIME_BUILTINS_H
#define RJIT_RUNTIME_BUILTINS_H

#include "runtime/value.h"
#include "support/interner.h"

namespace rjit {

class Env;

/// Identifiers for all builtin functions.
enum class BuiltinId : uint16_t {
  Length,
  Concat, ///< c(...)
  IntegerCtor,
  NumericCtor,
  ComplexCtor,
  LogicalCtor,
  CharacterCtor,
  ListCtor,
  VectorCtor, ///< vector(mode, n)
  SeqLen,
  Sqrt,
  Exp,
  Log,
  Sin,
  Cos,
  Tan,
  Atan2,
  Abs, ///< Mod on complex, like R
  Floor,
  Ceiling,
  Round,
  Min,
  Max,
  Sum,
  Mean,
  Re,
  Im,
  ModC, ///< Mod(z)
  Conj,
  Rev,
  Print,
  Cat,
  Stop,
  Identical,
  AsInteger,
  AsNumeric,
  AsComplex,
  AsLogical,
  IsNull,
  Nchar,
  Substr,
  Paste0,
  Runif,   ///< deterministic uniform [0,1) stream (seeded via set.seed)
  SetSeed, ///< set.seed(n)
  BitwAnd,
  BitwOr,
  BitwXor,
  BitwShiftL,
  BitwShiftR,
};

/// Number of builtins (table size).
inline constexpr unsigned NumBuiltins =
    static_cast<unsigned>(BuiltinId::BitwShiftR) + 1;

/// R-level name of a builtin.
const char *builtinName(BuiltinId Id);

/// The builtin installBuiltins binds under \p S, when there is one. The
/// builtin watch (runtime/context.h) keeps one bit per builtin.
bool builtinNamed(Symbol S, BuiltinId &Id);
static_assert(NumBuiltins <= 64, "the builtin watch keeps a 64-bit mask");

/// Invokes builtin \p Id on \p N arguments. Raises RError on arity or type
/// errors.
Value callBuiltin(BuiltinId Id, const Value *Args, size_t N);

/// Binds every builtin under its R name in \p GlobalEnv.
void installBuiltins(Env &GlobalEnv);

} // namespace rjit

#endif // RJIT_RUNTIME_BUILTINS_H
