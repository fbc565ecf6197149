//===-- runtime/value.cpp - Tagged R values --------------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/value.h"
#include "runtime/arith.h"
#include "runtime/context.h"
#include "runtime/env.h"
#include "support/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace rjit;

void rjit::rerror(const std::string &Msg) { throw RError(Msg); }

//===----------------------------------------------------------------------===//
// Tags
//===----------------------------------------------------------------------===//

const char *rjit::tagName(Tag T) {
  switch (T) {
  case Tag::Null:
    return "NULL";
  case Tag::Lgl:
    return "logical";
  case Tag::Int:
    return "integer";
  case Tag::Real:
    return "double";
  case Tag::Cplx:
    return "complex";
  case Tag::LglVec:
    return "logical[]";
  case Tag::IntVec:
    return "integer[]";
  case Tag::RealVec:
    return "double[]";
  case Tag::CplxVec:
    return "complex[]";
  case Tag::Str:
    return "character";
  case Tag::StrVec:
    return "character[]";
  case Tag::List:
    return "list";
  case Tag::Clos:
    return "closure";
  case Tag::Builtin:
    return "builtin";
  case Tag::EnvTag:
    return "environment";
  }
  return "?";
}

Tag rjit::scalarTagOf(Tag VecTag) {
  switch (VecTag) {
  case Tag::LglVec:
    return Tag::Lgl;
  case Tag::IntVec:
    return Tag::Int;
  case Tag::RealVec:
    return Tag::Real;
  case Tag::CplxVec:
    return Tag::Cplx;
  default:
    return VecTag;
  }
}

Tag rjit::vectorTagOf(Tag ScalarTag) {
  switch (ScalarTag) {
  case Tag::Lgl:
    return Tag::LglVec;
  case Tag::Int:
    return Tag::IntVec;
  case Tag::Real:
    return Tag::RealVec;
  case Tag::Cplx:
    return Tag::CplxVec;
  default:
    return ScalarTag;
  }
}

//===----------------------------------------------------------------------===//
// Heap accounting
//===----------------------------------------------------------------------===//

static HeapStats TheHeapStats;

HeapStats &rjit::heapStats() { return TheHeapStats; }

void rjit::resetHeapPeak() {
  TheHeapStats.PeakBytes = TheHeapStats.LiveBytes;
  TheHeapStats.TotalAllocated = 0;
  TheHeapStats.Allocations = 0;
}

GcObject::~GcObject() {
  if (Heap)
    Heap->remove(this);
  trackFree();
}

void GcObject::trackAlloc(uint64_t Bytes) {
  TrackedBytes += Bytes;
  TheHeapStats.LiveBytes += Bytes;
  TheHeapStats.TotalAllocated += Bytes;
  ++TheHeapStats.Allocations;
  TheHeapStats.PeakBytes.recordMax(TheHeapStats.LiveBytes);
  // Allocation-pressure trigger for the owning Vm's cycle collector (no-op
  // on threads without a heap, i.e. compiler threads).
  if (GcHeap *H = currentContext().heap())
    H->noteAllocated(Bytes);
}

void GcObject::retrackAlloc(uint64_t Bytes) {
  if (Bytes == TrackedBytes)
    return;
  if (Bytes > TrackedBytes) {
    uint64_t Delta = Bytes - TrackedBytes;
    TheHeapStats.LiveBytes += Delta;
    TheHeapStats.TotalAllocated += Delta;
    TheHeapStats.PeakBytes.recordMax(TheHeapStats.LiveBytes);
    if (GcHeap *H = currentContext().heap())
      H->noteAllocated(Delta);
  } else {
    TheHeapStats.LiveBytes -= TrackedBytes - Bytes;
  }
  TrackedBytes = Bytes;
}

void GcObject::trackFree() {
  assert(TheHeapStats.LiveBytes >= TrackedBytes && "heap accounting skew");
  TheHeapStats.LiveBytes -= TrackedBytes;
  TrackedBytes = 0;
}

//===----------------------------------------------------------------------===//
// Closures
//===----------------------------------------------------------------------===//

ClosObj::ClosObj(Function *Fn, Env *Enclosing) : Fn(Fn), Enclosing(Enclosing) {
  assert(Fn && "closure without code");
  if (Enclosing)
    Enclosing->retain();
  trackAlloc(32);
  enrollGc();
}

ClosObj::~ClosObj() {
  if (Enclosing)
    Enclosing->release();
}

void ClosObj::gcTrace(GcVisitor &V) const {
  if (Enclosing)
    V.visit(Enclosing);
}

void ClosObj::gcClear() {
  if (Enclosing) {
    Enclosing->release();
    Enclosing = nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Value constructors / accessors
//===----------------------------------------------------------------------===//

Value Value::str(std::string S) {
  return adopt(Tag::Str, new StrObj(std::move(S)));
}

Value Value::closure(Function *Fn, Env *Enclosing) {
  return adopt(Tag::Clos, new ClosObj(Fn, Enclosing));
}

Value Value::environment(Env *E) { return obj(Tag::EnvTag, E); }

Value Value::list(std::vector<Value> V) {
  return adopt(Tag::List, new ListObj(std::move(V)));
}

int64_t Value::length() const {
  switch (T) {
  case Tag::Null:
    return 0;
  case Tag::Lgl:
  case Tag::Int:
  case Tag::Real:
  case Tag::Cplx:
  case Tag::Str:
  case Tag::Clos:
  case Tag::Builtin:
  case Tag::EnvTag:
    return 1;
  case Tag::LglVec:
    return static_cast<int64_t>(lglVecObj()->D.size());
  case Tag::IntVec:
    return static_cast<int64_t>(intVecObj()->D.size());
  case Tag::RealVec:
    return static_cast<int64_t>(realVecObj()->D.size());
  case Tag::CplxVec:
    return static_cast<int64_t>(cplxVecObj()->D.size());
  case Tag::StrVec:
    return static_cast<int64_t>(strVecObj()->D.size());
  case Tag::List:
    return static_cast<int64_t>(listObj()->D.size());
  }
  return 0;
}

double Value::toReal() const {
  switch (T) {
  case Tag::Lgl:
    return I ? 1.0 : 0.0;
  case Tag::Int:
    return static_cast<double>(I);
  case Tag::Real:
    return D;
  default:
    break;
  }
  if (length() == 1 && isNumVecTag(T))
    return extract2(*this, 1).toReal();
  rerror(std::string("cannot coerce ") + tagName(T) + " to double");
}

int32_t Value::toInt() const {
  switch (T) {
  case Tag::Lgl:
    return I ? 1 : 0;
  case Tag::Int:
    return I;
  case Tag::Real:
    return realToInt(D);
  default:
    break;
  }
  if (length() == 1 && isNumVecTag(T))
    return extract2(*this, 1).toInt();
  rerror(std::string("cannot coerce ") + tagName(T) + " to integer");
}

Complex Value::toCplx() const {
  switch (T) {
  case Tag::Lgl:
    return {I ? 1.0 : 0.0, 0};
  case Tag::Int:
    return {static_cast<double>(I), 0};
  case Tag::Real:
    return {D, 0};
  case Tag::Cplx:
    return C;
  default:
    break;
  }
  if (length() == 1 && isNumVecTag(T))
    return extract2(*this, 1).toCplx();
  rerror(std::string("cannot coerce ") + tagName(T) + " to complex");
}

bool Value::asCondition() const {
  switch (T) {
  case Tag::Lgl:
    return I != 0;
  case Tag::Int:
    return I != 0;
  case Tag::Real:
    return D != 0;
  default:
    break;
  }
  if (length() == 1 && isNumVecTag(T))
    return extract2(*this, 1).asCondition();
  rerror(std::string("argument of type ") + tagName(T) +
         " is not interpretable as logical");
}

bool Value::equals(const Value &O) const {
  if (T != O.T) {
    // Scalar vs length-1 vector compare equal if contents match, matching
    // R's identical() on our representation choices closely enough for
    // tests.
    if (length() == 1 && O.length() == 1 && isNumVecTag(T) == false &&
        isNumVecTag(O.T) == false)
      return false;
    if (length() != O.length())
      return false;
    for (int64_t Idx = 1; Idx <= length(); ++Idx)
      if (!extract2(*this, Idx).equals(extract2(O, Idx)))
        return false;
    return true;
  }
  switch (T) {
  case Tag::Null:
    return true;
  case Tag::Lgl:
    return (I != 0) == (O.I != 0);
  case Tag::Int:
    return I == O.I;
  case Tag::Real:
    return D == O.D;
  case Tag::Cplx:
    return C == O.C;
  case Tag::Str:
    return strObj()->D == O.strObj()->D;
  case Tag::LglVec:
    return lglVecObj()->D == O.lglVecObj()->D;
  case Tag::IntVec:
    return intVecObj()->D == O.intVecObj()->D;
  case Tag::RealVec:
    return realVecObj()->D == O.realVecObj()->D;
  case Tag::CplxVec: {
    auto &A = cplxVecObj()->D, &B = O.cplxVecObj()->D;
    if (A.size() != B.size())
      return false;
    for (size_t Idx = 0; Idx < A.size(); ++Idx)
      if (!(A[Idx] == B[Idx]))
        return false;
    return true;
  }
  case Tag::StrVec:
    return strVecObj()->D == O.strVecObj()->D;
  case Tag::List: {
    auto &A = listObj()->D, &B = O.listObj()->D;
    if (A.size() != B.size())
      return false;
    for (size_t Idx = 0; Idx < A.size(); ++Idx)
      if (!A[Idx].equals(B[Idx]))
        return false;
    return true;
  }
  case Tag::Clos:
  case Tag::EnvTag:
    return P == O.P;
  case Tag::Builtin:
    return I == O.I;
  }
  return false;
}

static std::string showReal(double D) {
  if (std::abs(D) < 1e15 && D == static_cast<int64_t>(D)) {
    char Buf[32];
    snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(D));
    return Buf;
  }
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "%g", D);
  return Buf;
}

static std::string showCplx(Complex C) {
  return showReal(C.Re) + (C.Im < 0 ? "-" : "+") + showReal(std::abs(C.Im)) +
         "i";
}

std::string Value::show() const {
  switch (T) {
  case Tag::Null:
    return "NULL";
  case Tag::Lgl:
    return I ? "TRUE" : "FALSE";
  case Tag::Int:
    return std::to_string(I) + "L";
  case Tag::Real:
    return showReal(D);
  case Tag::Cplx:
    return showCplx(C);
  case Tag::Str:
    return "\"" + strObj()->D + "\"";
  case Tag::Clos:
    return "<closure>";
  case Tag::Builtin:
    return "<builtin>";
  case Tag::EnvTag:
    return "<environment>";
  default:
    break;
  }
  std::string S = "c(";
  int64_t N = length();
  for (int64_t Idx = 1; Idx <= N; ++Idx) {
    if (Idx > 1)
      S += ", ";
    if (Idx > 20) {
      S += "...";
      break;
    }
    S += extract2(*this, Idx).show();
  }
  return S + ")";
}

//===----------------------------------------------------------------------===//
// Generic operations
//===----------------------------------------------------------------------===//

const char *rjit::binOpName(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "+";
  case BinOp::Sub:
    return "-";
  case BinOp::Mul:
    return "*";
  case BinOp::Div:
    return "/";
  case BinOp::Pow:
    return "^";
  case BinOp::Mod:
    return "%%";
  case BinOp::IDiv:
    return "%/%";
  case BinOp::Eq:
    return "==";
  case BinOp::Ne:
    return "!=";
  case BinOp::Lt:
    return "<";
  case BinOp::Le:
    return "<=";
  case BinOp::Gt:
    return ">";
  case BinOp::Ge:
    return ">=";
  case BinOp::And:
    return "&&";
  case BinOp::Or:
    return "||";
  case BinOp::Colon:
    return ":";
  }
  return "?";
}

namespace {

/// Numeric coercion ladder.
enum class NumKind : uint8_t { Lgl, Int, Real, Cplx };

NumKind numKindOfTag(Tag T) {
  switch (T) {
  case Tag::Lgl:
  case Tag::LglVec:
    return NumKind::Lgl;
  case Tag::Int:
  case Tag::IntVec:
    return NumKind::Int;
  case Tag::Real:
  case Tag::RealVec:
    return NumKind::Real;
  case Tag::Cplx:
  case Tag::CplxVec:
    return NumKind::Cplx;
  default:
    rerror(std::string("non-numeric argument (") + tagName(T) +
           ") to binary operator");
  }
}

/// Uniform elementwise view of a numeric value.
struct NumView {
  const Value &V;
  int64_t Len;

  explicit NumView(const Value &V) : V(V), Len(V.length()) {}

  int32_t getInt(int64_t Idx0) const {
    switch (V.tag()) {
    case Tag::Lgl:
      return V.asLglUnchecked() ? 1 : 0;
    case Tag::Int:
      return V.asIntUnchecked();
    case Tag::Real:
      return realToInt(V.asRealUnchecked());
    case Tag::LglVec:
      return V.lglVecObj()->D[Idx0];
    case Tag::IntVec:
      return V.intVecObj()->D[Idx0];
    case Tag::RealVec:
      return realToInt(V.realVecObj()->D[Idx0]);
    default:
      rerror("cannot view as integer");
    }
  }
  double getReal(int64_t Idx0) const {
    switch (V.tag()) {
    case Tag::Lgl:
      return V.asLglUnchecked() ? 1 : 0;
    case Tag::Int:
      return V.asIntUnchecked();
    case Tag::Real:
      return V.asRealUnchecked();
    case Tag::LglVec:
      return V.lglVecObj()->D[Idx0];
    case Tag::IntVec:
      return V.intVecObj()->D[Idx0];
    case Tag::RealVec:
      return V.realVecObj()->D[Idx0];
    default:
      rerror("cannot view as double");
    }
  }
  Complex getCplx(int64_t Idx0) const {
    if (V.tag() == Tag::Cplx)
      return V.asCplxUnchecked();
    if (V.tag() == Tag::CplxVec)
      return V.cplxVecObj()->D[Idx0];
    return {getReal(Idx0), 0};
  }
};

} // namespace

Value rjit::genericBinary(BinOp Op, const Value &A, const Value &B) {
  // Logical && / || are scalar-only control operators.
  if (Op == BinOp::And)
    return Value::lgl(A.asCondition() && B.asCondition());
  if (Op == BinOp::Or)
    return Value::lgl(A.asCondition() || B.asCondition());
  if (Op == BinOp::Colon)
    return colonSeq(A, B);

  // String equality.
  if (A.tag() == Tag::Str && B.tag() == Tag::Str) {
    if (Op == BinOp::Eq)
      return Value::lgl(A.strObj()->D == B.strObj()->D);
    if (Op == BinOp::Ne)
      return Value::lgl(A.strObj()->D != B.strObj()->D);
    if (Op == BinOp::Add) // paste0-style concatenation convenience
      return Value::str(A.strObj()->D + B.strObj()->D);
    rerror("invalid string operation");
  }

  NumKind KA = numKindOfTag(A.tag());
  NumKind KB = numKindOfTag(B.tag());
  NumKind K = KA > KB ? KA : KB;

  NumView VA(A), VB(B);
  int64_t LenA = VA.Len, LenB = VB.Len;
  if (LenA == 0 || LenB == 0)
    rerror("zero-length operand");
  int64_t Len = LenA > LenB ? LenA : LenB;
  if (LenA != LenB && LenA != 1 && LenB != 1)
    rerror("operand lengths do not match");
  auto IdxA = [&](int64_t Idx) { return LenA == 1 ? 0 : Idx; };
  auto IdxB = [&](int64_t Idx) { return LenB == 1 ? 0 : Idx; };

  if (isComparison(Op)) {
    auto Compare = [&](int64_t I, int64_t J) {
      return K == NumKind::Cplx
                 ? cplxCompare(Op, VA.getCplx(I), VB.getCplx(J))
                 : scalarCompare(Op, VA.getReal(I), VB.getReal(J));
    };
    if (Len == 1)
      return Value::lgl(Compare(0, 0));
    std::vector<int8_t> R(Len);
    for (int64_t Idx = 0; Idx < Len; ++Idx)
      R[Idx] = Compare(IdxA(Idx), IdxB(Idx)) ? 1 : 0;
    return Value::lglVec(std::move(R));
  }

  // Arithmetic: logical operands behave as integers; / ^ always produce
  // doubles (except on complex).
  bool IntResult = (K == NumKind::Lgl || K == NumKind::Int) &&
                   (Op == BinOp::Add || Op == BinOp::Sub || Op == BinOp::Mul ||
                    Op == BinOp::Mod || Op == BinOp::IDiv);

  if (K == NumKind::Cplx) {
    if (Len == 1)
      return Value::cplx(cplxArith(Op, VA.getCplx(0), VB.getCplx(0)));
    std::vector<Complex> R(Len);
    for (int64_t Idx = 0; Idx < Len; ++Idx)
      R[Idx] = cplxArith(Op, VA.getCplx(IdxA(Idx)), VB.getCplx(IdxB(Idx)));
    return Value::cplxVec(std::move(R));
  }

  if (IntResult) {
    if (Len == 1)
      return Value::integer(intArith(Op, VA.getInt(0), VB.getInt(0)));
    std::vector<int32_t> R(Len);
    for (int64_t Idx = 0; Idx < Len; ++Idx)
      R[Idx] = intArith(Op, VA.getInt(IdxA(Idx)), VB.getInt(IdxB(Idx)));
    return Value::intVec(std::move(R));
  }

  if (Len == 1)
    return Value::real(realArith(Op, VA.getReal(0), VB.getReal(0)));
  std::vector<double> R(Len);
  for (int64_t Idx = 0; Idx < Len; ++Idx)
    R[Idx] = realArith(Op, VA.getReal(IdxA(Idx)), VB.getReal(IdxB(Idx)));
  return Value::realVec(std::move(R));
}

Value rjit::genericNeg(const Value &A) {
  switch (A.tag()) {
  case Tag::Lgl:
    return Value::integer(A.asLglUnchecked() ? -1 : 0);
  case Tag::Int:
    return Value::integer(-A.asIntUnchecked());
  case Tag::Real:
    return Value::real(-A.asRealUnchecked());
  case Tag::Cplx: {
    Complex C = A.asCplxUnchecked();
    return Value::cplx(-C.Re, -C.Im);
  }
  case Tag::IntVec: {
    std::vector<int32_t> R = A.intVecObj()->D;
    for (auto &X : R)
      X = -X;
    return Value::intVec(std::move(R));
  }
  case Tag::RealVec: {
    std::vector<double> R = A.realVecObj()->D;
    for (auto &X : R)
      X = -X;
    return Value::realVec(std::move(R));
  }
  case Tag::CplxVec: {
    std::vector<Complex> R = A.cplxVecObj()->D;
    for (auto &X : R)
      X = {-X.Re, -X.Im};
    return Value::cplxVec(std::move(R));
  }
  default:
    rerror(std::string("invalid argument to unary minus: ") +
           tagName(A.tag()));
  }
}

Value rjit::genericNot(const Value &A) {
  if (A.length() == 1)
    return Value::lgl(!A.asCondition());
  if (A.tag() == Tag::LglVec) {
    std::vector<int8_t> R = A.lglVecObj()->D;
    for (auto &X : R)
      X = X ? 0 : 1;
    return Value::lglVec(std::move(R));
  }
  rerror("invalid argument to !");
}

void rjit::subscriptOutOfBounds(int64_t Idx) {
  rerror("subscript out of bounds: " + std::to_string(Idx));
}

Value rjit::extract2(const Value &X, int64_t Idx) {
  switch (X.tag()) {
  case Tag::Lgl:
  case Tag::LglVec:
    return Value::lgl(readElem<int8_t>(X, Idx) != 0);
  case Tag::Int:
  case Tag::IntVec:
    return Value::integer(readElem<int32_t>(X, Idx));
  case Tag::Real:
  case Tag::RealVec:
    return Value::real(readElem<double>(X, Idx));
  case Tag::Cplx:
  case Tag::CplxVec:
    return Value::cplx(readElem<Complex>(X, Idx));
  default:
    break;
  }
  if (Idx < 1 || Idx > X.length())
    subscriptOutOfBounds(Idx);
  switch (X.tag()) {
  case Tag::Str:
    return X; // length-one value, index must be 1
  case Tag::StrVec:
    return Value::str(X.strVecObj()->D[Idx - 1]);
  case Tag::List:
    return X.listObj()->D[Idx - 1];
  default:
    rerror(std::string("cannot subscript ") + tagName(X.tag()));
  }
}

Value rjit::extract1(const Value &X, const Value &Idx) {
  // Scalar index: like [[ ]] but a list yields a length-one list.
  if (Idx.length() == 1 && Idx.tag() != Tag::IntVec &&
      Idx.tag() != Tag::RealVec) {
    int64_t I = Idx.toInt();
    if (X.tag() == Tag::List)
      return Value::list({extract2(X, I)});
    return extract2(X, I);
  }
  // Vector index: build a sub-vector.
  int64_t M = Idx.length();
  std::vector<int64_t> Is(M);
  for (int64_t K = 0; K < M; ++K)
    Is[K] = extract2(Idx, K + 1).toInt();
  switch (X.tag()) {
  case Tag::IntVec:
  case Tag::Int: {
    std::vector<int32_t> R(M);
    for (int64_t K = 0; K < M; ++K)
      R[K] = readElem<int32_t>(X, Is[K]);
    return Value::intVec(std::move(R));
  }
  case Tag::RealVec:
  case Tag::Real: {
    std::vector<double> R(M);
    for (int64_t K = 0; K < M; ++K)
      R[K] = readElem<double>(X, Is[K]);
    return Value::realVec(std::move(R));
  }
  case Tag::CplxVec:
  case Tag::Cplx: {
    std::vector<Complex> R(M);
    for (int64_t K = 0; K < M; ++K)
      R[K] = readElem<Complex>(X, Is[K]);
    return Value::cplxVec(std::move(R));
  }
  case Tag::List: {
    std::vector<Value> R(M);
    for (int64_t K = 0; K < M; ++K)
      R[K] = extract2(X, Is[K]);
    return Value::list(std::move(R));
  }
  default:
    rerror(std::string("cannot vector-subscript ") + tagName(X.tag()));
  }
}

namespace {

/// A container's rank in the widening order LglVec < IntVec < RealVec <
/// CplxVec < StrVec < List, or -1 when no element can be stored into it.
int assignRank(Tag T) {
  switch (T) {
  case Tag::LglVec:
    return 0;
  case Tag::IntVec:
    return 1;
  case Tag::RealVec:
    return 2;
  case Tag::CplxVec:
    return 3;
  case Tag::StrVec:
    return 4;
  case Tag::List:
    return 5;
  default:
    return -1;
  }
}

/// The container tag \p X is stored as: a scalar or a string as its
/// one-element vector.
Tag containerTag(const Value &X) {
  Tag T = X.tag();
  if (T == Tag::Str)
    return Tag::StrVec;
  return isScalarTag(T) ? vectorTagOf(T) : T;
}

/// Widens a container so an element of kind \p ElemTag fits. Scalars are
/// first boxed into one-element vectors; NULL grows from an empty vector.
Value widenFor(Value X, Tag ElemTag) {
  Tag Want = isScalarTag(ElemTag)   ? vectorTagOf(ElemTag)
             : ElemTag == Tag::Str ? Tag::StrVec
                                   : Tag::List;
  if (X.isNull())
    X = Want == Tag::StrVec ? Value::strVec({}) : Value::lglVec({});
  else if (isScalarTag(X.tag()) || X.tag() == Tag::Str)
    X = vectorOf(X);
  Tag T = X.tag();
  assert(assignRank(T) >= 0 && "assign2 checked the container");
  if (assignRank(T) >= assignRank(Want))
    return X;

  // Promote container to Want.
  int64_t N = X.length();
  switch (Want) {
  case Tag::IntVec: {
    std::vector<int32_t> R(N);
    for (int64_t K = 0; K < N; ++K)
      R[K] = extract2(X, K + 1).toInt();
    return Value::intVec(std::move(R));
  }
  case Tag::RealVec: {
    std::vector<double> R(N);
    for (int64_t K = 0; K < N; ++K)
      R[K] = extract2(X, K + 1).toReal();
    return Value::realVec(std::move(R));
  }
  case Tag::CplxVec: {
    std::vector<Complex> R(N);
    for (int64_t K = 0; K < N; ++K)
      R[K] = extract2(X, K + 1).toCplx();
    return Value::cplxVec(std::move(R));
  }
  case Tag::StrVec:
  case Tag::List: {
    std::vector<Value> R(N);
    for (int64_t K = 0; K < N; ++K)
      R[K] = extract2(X, K + 1);
    return Value::list(std::move(R));
  }
  default:
    return X;
  }
}

} // namespace

Value rjit::vectorOf(const Value &X) {
  switch (X.tag()) {
  case Tag::Lgl:
    return Value::lglVec({ElemKind<int8_t>::scalar(X)});
  case Tag::Int:
    return Value::intVec({X.asIntUnchecked()});
  case Tag::Real:
    return Value::realVec({X.asRealUnchecked()});
  case Tag::Cplx:
    return Value::cplxVec({X.asCplxUnchecked()});
  case Tag::Str:
    return Value::strVec({X.strObj()->D});
  default:
    return X;
  }
}

void rjit::badStoreIndex(int64_t Idx) {
  rerror(Idx < 1 ? "invalid subscript in assignment"
                 : "assignment index too far past the end");
}

void rjit::assign2(Value &X, int64_t Idx, const Value &V) {
  Tag ElemTag = V.tag();
  if (!isScalarTag(ElemTag) && ElemTag != Tag::Str) {
    // Assigning a non-scalar element forces a generic list container,
    // except length-1 vectors which behave like their scalar.
    if (isNumVecTag(ElemTag) && V.length() == 1)
      ElemTag = scalarTagOf(ElemTag);
    else
      ElemTag = Tag::List;
  }

  // Every error comes before X changes: a failed store leaves the
  // container, and the binding it lives in, as it was.
  checkStoreIndex(Idx, X.length());
  Tag T = containerTag(X);
  if (!X.isNull() && assignRank(T) < 0)
    rerror(std::string("cannot assign into ") + tagName(T));
  // A character vector stays one for a scalar element, which is no string.
  if (T == Tag::StrVec && isScalarTag(ElemTag))
    rerror("assigning non-string into character vector");

  X = widenFor(std::move(X), ElemTag);

  switch (X.tag()) {
  case Tag::LglVec:
    return storeElem<int8_t>(X, Idx, V.asCondition() ? 1 : 0);
  case Tag::IntVec:
    return storeElem(X, Idx, V.toInt());
  case Tag::RealVec:
    return storeElem(X, Idx, V.toReal());
  case Tag::CplxVec:
    return storeElem(X, Idx, V.toCplx());
  case Tag::StrVec:
    elemSlot<StrVecObj>(X, Idx) = V.strObj()->D;
    return;
  case Tag::List:
    elemSlot<ListObj>(X, Idx) = V;
    return;
  default:
    assert(false && "widenFor yields a container");
  }
}

Value rjit::coerceScalar(const Value &V, Tag Kind) {
  switch (Kind) {
  case Tag::Int:
    return Value::integer(V.toInt());
  case Tag::Real:
    return Value::real(V.toReal());
  case Tag::Cplx:
    return Value::cplx(V.toCplx());
  default:
    assert(Kind == Tag::Lgl && "a numeric scalar kind");
    return Value::lgl(V.asCondition());
  }
}

Value rjit::colonSeq(const Value &A, const Value &B) {
  double From = A.toReal(), To = B.toReal();
  // The bounds are checked before any conversion: no NaN, infinity or
  // out-of-range value reaches a cast.
  if (std::isnan(From) || std::isnan(To))
    rerror("NA/NaN argument to ':'");
  double Span = std::abs(To - From);
  if (!(Span < (1 << 28)))
    rerror("sequence too long");
  int64_t N = static_cast<int64_t>(Span) + 1;
  int64_t Step = To >= From ? 1 : -1;
  // R's `:` yields integers whenever `from` is integral; toReal has
  // already rejected anything but a logical, integer or double of length
  // one, scalar or vector. They must fit: opt/inference.cpp types `c:n` as
  // an integer vector from an integral constant `c` alone, so a sequence
  // that would leave the int32 range raises rather than turning double.
  if (From == std::floor(From)) {
    double Last = From + static_cast<double>(Step * (N - 1));
    if (std::min(From, Last) < INT32_MIN || std::max(From, Last) > INT32_MAX)
      rerror("integer sequence out of range");
    std::vector<int32_t> R(N);
    int64_t X = static_cast<int64_t>(From);
    for (int64_t K = 0; K < N; ++K, X += Step)
      R[K] = static_cast<int32_t>(X);
    return Value::intVec(std::move(R));
  }
  std::vector<double> R(N);
  double X = From;
  for (int64_t K = 0; K < N; ++K, X += Step)
    R[K] = X;
  return Value::realVec(std::move(R));
}
