//===-- runtime/arith.h - Scalar arithmetic, declared once -------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scalar semantics of R's binary operators and of double to integer
/// conversion: the generic path (genericBinary, per element after coercion
/// and recycling) and the typed LowCode ops (ArithTyped, CmpBranch, Coerce)
/// all compute through these, so the tiers cannot produce different values.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_RUNTIME_ARITH_H
#define RJIT_RUNTIME_ARITH_H

#include "runtime/value.h"

#include <cmath>

namespace rjit {

/// R's double to integer conversion: truncation toward zero, and INT32_MIN
/// (R's NA_integer_) for NaN and for values outside the int32 range. That
/// is what x86's cvttsd2si yields, so the native Coerce template agrees
/// with every other tier, and no out-of-range cast is undefined behaviour.
inline int32_t realToInt(double D) {
  return D > -2147483649.0 && D < 2147483648.0 ? static_cast<int32_t>(D)
                                               : INT32_MIN;
}

/// Integer + - * %% %/%. Wraparound is performed in unsigned arithmetic:
/// signed overflow is UB in C++, and every tier must produce the identical
/// (wrapped) value for the cross-tier differential tests.
inline int32_t intArith(BinOp Op, int32_t A, int32_t B) {
  auto Wrap = [](uint32_t R) { return static_cast<int32_t>(R); };
  switch (Op) {
  case BinOp::Add:
    return Wrap(static_cast<uint32_t>(A) + static_cast<uint32_t>(B));
  case BinOp::Sub:
    return Wrap(static_cast<uint32_t>(A) - static_cast<uint32_t>(B));
  case BinOp::Mul:
    return Wrap(static_cast<uint32_t>(A) * static_cast<uint32_t>(B));
  case BinOp::Mod: {
    if (B == 0)
      rerror("integer modulo by zero");
    if (B == -1)
      return 0; // INT_MIN % -1 traps on x86; the result is always 0
    int32_t R = A % B;
    if (R != 0 && ((R < 0) != (B < 0)))
      R += B; // R's %% has the sign of the divisor.
    return R;
  }
  case BinOp::IDiv: {
    if (B == 0)
      rerror("integer division by zero");
    if (B == -1) // INT_MIN / -1 traps on x86; negate with wraparound
      return Wrap(0u - static_cast<uint32_t>(A));
    int32_t Q = A / B;
    if ((A % B != 0) && ((A < 0) != (B < 0)))
      --Q;
    return Q;
  }
  default:
    assert(false && "not an int-preserving op");
    return 0;
  }
}

inline double realArith(BinOp Op, double A, double B) {
  switch (Op) {
  case BinOp::Add:
    return A + B;
  case BinOp::Sub:
    return A - B;
  case BinOp::Mul:
    return A * B;
  case BinOp::Div:
    return A / B;
  case BinOp::Pow:
    return std::pow(A, B);
  case BinOp::Mod: {
    double R = std::fmod(A, B);
    if (R != 0 && ((R < 0) != (B < 0)))
      R += B;
    return R;
  }
  case BinOp::IDiv:
    return std::floor(A / B);
  default:
    assert(false && "not a real arithmetic op");
    return 0;
  }
}

/// The six comparisons on int or double scalars.
template <typename T> bool scalarCompare(BinOp Op, T A, T B) {
  switch (Op) {
  case BinOp::Eq:
    return A == B;
  case BinOp::Ne:
    return A != B;
  case BinOp::Lt:
    return A < B;
  case BinOp::Le:
    return A <= B;
  case BinOp::Gt:
    return A > B;
  case BinOp::Ge:
    return A >= B;
  default:
    assert(false && "not a comparison");
    return false;
  }
}

/// Complex + - * /.
inline Complex cplxArith(BinOp Op, Complex A, Complex B) {
  switch (Op) {
  case BinOp::Add:
    return A + B;
  case BinOp::Sub:
    return A - B;
  case BinOp::Mul:
    return A * B;
  case BinOp::Div:
    return A / B;
  default:
    rerror("invalid operation on complex values");
  }
}

/// Complex == and !=, the only comparisons complex values have.
inline bool cplxCompare(BinOp Op, Complex A, Complex B) {
  if (Op != BinOp::Eq && Op != BinOp::Ne)
    rerror("invalid comparison with complex values");
  return (A == B) == (Op == BinOp::Eq);
}

} // namespace rjit

#endif // RJIT_RUNTIME_ARITH_H
