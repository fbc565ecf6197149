//===-- runtime/value.h - Tagged R values -----------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value representation of the mini-R runtime. Mirrors the aspects of
/// GNU R / Ř semantics the paper's experiments depend on:
///
///  * everything is a vector; scalars are length-one vectors, but the VM
///    keeps length-one logical/integer/real/complex values immediate
///    (unboxed in the Value struct) — the same distinction Ř's type system
///    tracks and the optimizer exploits for unboxing;
///  * vectors have copy-on-write value semantics (refcount == 1 writes in
///    place, shared vectors are copied), which is where R's memory appetite
///    comes from (§5.1's memory discussion);
///  * arithmetic follows the R coercion ladder
///    logical < integer < real < complex.
///
/// Heap objects are intrusively refcounted; allocation volume and the live
/// high-water mark are tracked for the Fig. 6 memory experiment.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_RUNTIME_VALUE_H
#define RJIT_RUNTIME_VALUE_H

#include "support/interner.h"
#include "support/relaxed.h"
#include "support/stats.h"

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace rjit {

class Env;
class Function; // Defined by the bytecode layer; opaque here.

/// Run-time error raised by mini-R programs (type errors, bad subscripts).
/// This is the documented substitution for GNU R's longjmp-based condition
/// system; it never crosses the public VM API.
class RError : public std::runtime_error {
public:
  explicit RError(const std::string &Msg) : std::runtime_error(Msg) {}
};

[[noreturn]] void rerror(const std::string &Msg);

/// Complex number; a trivial aggregate so it packs into Value's union.
struct Complex {
  double Re, Im;

  friend Complex operator+(Complex A, Complex B) {
    return {A.Re + B.Re, A.Im + B.Im};
  }
  friend Complex operator-(Complex A, Complex B) {
    return {A.Re - B.Re, A.Im - B.Im};
  }
  friend Complex operator*(Complex A, Complex B) {
    return {A.Re * B.Re - A.Im * B.Im, A.Re * B.Im + A.Im * B.Re};
  }
  friend Complex operator/(Complex A, Complex B) {
    double D = B.Re * B.Re + B.Im * B.Im;
    return {(A.Re * B.Re + A.Im * B.Im) / D,
            (A.Im * B.Re - A.Re * B.Im) / D};
  }
  friend bool operator==(Complex A, Complex B) {
    return A.Re == B.Re && A.Im == B.Im;
  }
  double mod2() const { return Re * Re + Im * Im; }
};

/// Dynamic tag of a Value. The feedback vectors, the optimizer's type
/// lattice and the DeoptContext all speak in terms of these tags.
enum class Tag : uint8_t {
  Null,
  // Immediate scalars.
  Lgl,
  Int,
  Real,
  Cplx,
  // Heap vectors (length != 1 or explicitly boxed).
  LglVec,
  IntVec,
  RealVec,
  CplxVec,
  Str,    ///< single string (heap)
  StrVec, ///< vector of strings
  List,   ///< generic vector ("list"), elements are arbitrary Values
  Clos,   ///< closure (function + environment)
  Builtin,///< builtin function id
  EnvTag, ///< first-class environment
};

/// Number of distinct tags (used to size feedback tables).
inline constexpr unsigned NumTags = static_cast<unsigned>(Tag::EnvTag) + 1;

const char *tagName(Tag T);

/// True for the four immediate numeric scalar tags.
inline bool isScalarTag(Tag T) {
  return T == Tag::Lgl || T == Tag::Int || T == Tag::Real || T == Tag::Cplx;
}

/// True for the heap numeric vector tags.
inline bool isNumVecTag(Tag T) {
  return T == Tag::LglVec || T == Tag::IntVec || T == Tag::RealVec ||
         T == Tag::CplxVec;
}

/// Scalar tag corresponding to a numeric vector tag (IntVec -> Int, ...).
Tag scalarTagOf(Tag VecTag);
/// Vector tag corresponding to a numeric scalar tag (Int -> IntVec, ...).
Tag vectorTagOf(Tag ScalarTag);

//===----------------------------------------------------------------------===//
// Heap objects
//===----------------------------------------------------------------------===//

/// Heap accounting: live bytes and the high-water mark, reported by the
/// Fig. 6 memory experiment as a stand-in for max resident set size.
/// Relaxed atomics: allocation happens on executor threads and (for code
/// constants) compiler threads concurrently; the peak update may lose a
/// race between two maxima but every access stays data-race-free.
struct HeapStats {
  RelaxedCounter LiveBytes;
  RelaxedCounter PeakBytes;
  RelaxedCounter TotalAllocated;
  RelaxedCounter Allocations;
};
HeapStats &heapStats();
/// Resets the peak/total counters (live bytes are left untouched).
void resetHeapPeak();

class GcHeap;
class GcObject;

/// Callback interface for GcObject::gcTrace: the cycle collector's view of
/// an object's outgoing counted references.
class GcVisitor {
public:
  virtual void visit(GcObject *O) = 0;

protected:
  ~GcVisitor() = default;
};

/// Base class for refcounted heap objects.
class GcObject {
public:
  GcObject() = default;
  GcObject(const GcObject &) = delete;
  GcObject &operator=(const GcObject &) = delete;
  virtual ~GcObject();

  void retain() const { ++RefCount; }
  void release() const {
    assert(RefCount > 0 && "over-release");
    if (--RefCount == 0)
      delete this;
  }
  uint32_t refCount() const { return RefCount; }

  /// Visits every counted reference this object holds to another GcObject.
  /// The cycle collector subtracts these from RefCount to find external
  /// roots, so overrides must report exactly the references the object
  /// retains — no more, no fewer. Default: no outgoing references.
  virtual void gcTrace(GcVisitor &V) const { (void)V; }

  /// Drops every counted reference this object holds, nulling the fields so
  /// the destructor does not release them again. The collector calls this on
  /// each member of an unreachable cycle before freeing the batch.
  virtual void gcClear() {}

  /// The registry this object belongs to (nullptr for objects allocated off
  /// any Vm thread or orphaned at Vm teardown).
  GcHeap *gcHeap() const { return Heap; }

protected:
  /// Derived constructors report their payload size for heap accounting.
  void trackAlloc(uint64_t Bytes);
  /// Re-reports the payload size after in-place growth (subscript
  /// assignment past the end resizes the backing vector); keeps LiveBytes
  /// honest between construction and destruction.
  void retrackAlloc(uint64_t Bytes);
  void trackFree();
  /// Registers this object with the calling thread's active GcHeap (no-op
  /// when there is none). Only cycle-capable types — Env, ClosObj, ListObj —
  /// enroll; everything else stays pure-refcount.
  void enrollGc();

private:
  friend class GcHeap;
  /// The native backend's boxed-copy template bumps RefCount in place.
  friend struct ValueLayout;
  GcHeap *Heap = nullptr;
  uint32_t HeapSlot = 0;
  mutable uint32_t RefCount = 0;
  uint64_t TrackedBytes = 0;
};

/// A heap-allocated vector of \p T.
template <typename T> class VecObj : public GcObject {
public:
  explicit VecObj(size_t N = 0) : D(N) { trackAlloc(sizeof(T) * N + 32); }
  explicit VecObj(std::vector<T> V) : D(std::move(V)) {
    trackAlloc(sizeof(T) * D.size() + 32);
  }
  ~VecObj() override = default;

  /// Call after growing \c D in place so heap accounting follows the
  /// current size (construction only tracked the initial one).
  void retrack() { retrackAlloc(sizeof(T) * D.size() + 32); }

  std::vector<T> D;
};

class Value; // fwd

using LglVecObj = VecObj<int8_t>;
using IntVecObj = VecObj<int32_t>;
using RealVecObj = VecObj<double>;
using CplxVecObj = VecObj<Complex>;
using StrVecObj = VecObj<std::string>;

/// Single heap string.
class StrObj : public GcObject {
public:
  explicit StrObj(std::string S) : D(std::move(S)) {
    trackAlloc(D.size() + 32);
  }
  std::string D;
};

/// A closure: a compiled function plus its defining environment.
/// \c Fn is owned by the VM's module, not by the closure.
class ClosObj : public GcObject {
public:
  ClosObj(Function *Fn, Env *Enclosing);
  ~ClosObj() override;

  /// Closures capture their defining environment, the canonical cycle edge
  /// (the environment's binding for the closure closes the loop).
  void gcTrace(GcVisitor &V) const override;
  void gcClear() override;

  Function *Fn;
  Env *Enclosing; ///< retained
};

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

/// Builtin function identifier; the table lives in runtime/builtins.h.
enum class BuiltinId : uint16_t;

/// A tagged mini-R value: 24 bytes, immediate numeric scalars, refcounted
/// pointer otherwise.
class Value {
public:
  Value() : T(Tag::Null) { P = nullptr; }
  ~Value() { releasePayload(); }

  Value(const Value &O) {
    rawCopyFrom(O);
    retainPayload();
  }
  Value(Value &&O) noexcept {
    rawCopyFrom(O);
    O.T = Tag::Null;
    O.P = nullptr;
  }
  Value &operator=(const Value &O) {
    if (this == &O)
      return *this;
    O.retainPayload();
    releasePayload();
    rawCopyFrom(O);
    return *this;
  }
  Value &operator=(Value &&O) noexcept {
    if (this == &O)
      return *this;
    releasePayload();
    rawCopyFrom(O);
    O.T = Tag::Null;
    O.P = nullptr;
    return *this;
  }

  Tag tag() const { return T; }
  bool isNull() const { return T == Tag::Null; }

  //===-- Constructors ----------------------------------------------------//

  static Value nil() { return Value(); }
  static Value lgl(bool B) {
    Value V;
    V.T = Tag::Lgl;
    V.I = B ? 1 : 0;
    return V;
  }
  static Value integer(int32_t X) {
    Value V;
    V.T = Tag::Int;
    V.I = X;
    return V;
  }
  static Value real(double X) {
    Value V;
    V.T = Tag::Real;
    V.D = X;
    return V;
  }
  static Value cplx(Complex X) {
    Value V;
    V.T = Tag::Cplx;
    V.C = X;
    return V;
  }
  static Value cplx(double Re, double Im) { return cplx(Complex{Re, Im}); }
  static Value str(std::string S);
  static Value builtin(BuiltinId Id) {
    Value V;
    V.T = Tag::Builtin;
    V.I = static_cast<int32_t>(Id);
    return V;
  }
  static Value closure(Function *Fn, Env *Enclosing);
  static Value environment(Env *E);

  /// Wraps an existing heap object (takes a +1 reference).
  static Value obj(Tag T, GcObject *O) {
    assert(O && "null heap object");
    Value V;
    V.T = T;
    V.P = O;
    O->retain();
    return V;
  }
  /// Wraps a freshly allocated heap object (adopts; refcount must be 0).
  static Value adopt(Tag T, GcObject *O) {
    assert(O && O->refCount() == 0 && "adopt expects a fresh object");
    Value V;
    V.T = T;
    V.P = O;
    O->retain();
    return V;
  }

  static Value intVec(std::vector<int32_t> V) {
    return adopt(Tag::IntVec, new IntVecObj(std::move(V)));
  }
  static Value realVec(std::vector<double> V) {
    return adopt(Tag::RealVec, new RealVecObj(std::move(V)));
  }
  static Value cplxVec(std::vector<Complex> V) {
    return adopt(Tag::CplxVec, new CplxVecObj(std::move(V)));
  }
  static Value lglVec(std::vector<int8_t> V) {
    return adopt(Tag::LglVec, new LglVecObj(std::move(V)));
  }
  static Value strVec(std::vector<std::string> V) {
    return adopt(Tag::StrVec, new StrVecObj(std::move(V)));
  }
  static Value list(std::vector<Value> V);

  //===-- Scalar accessors (tag must match) --------------------------------//

  bool asLglUnchecked() const {
    assert(T == Tag::Lgl);
    return I != 0;
  }
  int32_t asIntUnchecked() const {
    assert(T == Tag::Int);
    return I;
  }
  double asRealUnchecked() const {
    assert(T == Tag::Real);
    return D;
  }
  Complex asCplxUnchecked() const {
    assert(T == Tag::Cplx);
    return C;
  }
  GcObject *object() const {
    assert(!isScalarTag(T) && T != Tag::Null && T != Tag::Builtin);
    return P;
  }
  BuiltinId builtinId() const {
    assert(T == Tag::Builtin);
    return static_cast<BuiltinId>(I);
  }

  IntVecObj *intVecObj() const {
    assert(T == Tag::IntVec);
    return static_cast<IntVecObj *>(P);
  }
  RealVecObj *realVecObj() const {
    assert(T == Tag::RealVec);
    return static_cast<RealVecObj *>(P);
  }
  CplxVecObj *cplxVecObj() const {
    assert(T == Tag::CplxVec);
    return static_cast<CplxVecObj *>(P);
  }
  LglVecObj *lglVecObj() const {
    assert(T == Tag::LglVec);
    return static_cast<LglVecObj *>(P);
  }
  StrVecObj *strVecObj() const {
    assert(T == Tag::StrVec);
    return static_cast<StrVecObj *>(P);
  }
  StrObj *strObj() const {
    assert(T == Tag::Str);
    return static_cast<StrObj *>(P);
  }
  class ListObj *listObj() const;
  ClosObj *closObj() const {
    assert(T == Tag::Clos);
    return static_cast<ClosObj *>(P);
  }
  Env *env() const;

  //===-- Generic queries ---------------------------------------------------//

  /// R length(): scalars are 1, NULL is 0, vectors their element count.
  int64_t length() const;

  /// Converts to double, raising RError if not numeric.
  double toReal() const;
  /// Converts to int (truncating reals), raising RError if not numeric.
  int32_t toInt() const;
  /// Converts to complex, raising RError if not numeric.
  Complex toCplx() const;
  /// Condition coercion for if/while: must be length-1 logical/numeric.
  bool asCondition() const;

  /// Structural equality (used by tests and identical()).
  bool equals(const Value &O) const;

  /// Human-readable rendering (deparse-lite, used by print/cat and tests).
  std::string show() const;

  /// True if the payload is an unshared heap object (safe to mutate).
  bool unshared() const {
    return !isScalarTag(T) && T != Tag::Null && T != Tag::Builtin && P &&
           P->refCount() == 1;
  }

  /// The heap payload when the tag carries one, nullptr otherwise — the
  /// cycle collector's uniform view of a Value's outgoing reference.
  GcObject *heapPayload() const {
    return (!isScalarTag(T) && T != Tag::Null && T != Tag::Builtin) ? P
                                                                    : nullptr;
  }

private:
  /// The native backend's template JIT emits direct loads of the tag and
  /// payload; the friend computes the layout offsets (native/jit.cpp).
  friend struct ValueLayout;

  void retainPayload() const {
    if (!isScalarTag(T) && T != Tag::Null && T != Tag::Builtin && P)
      P->retain();
  }
  void releasePayload() {
    if (!isScalarTag(T) && T != Tag::Null && T != Tag::Builtin && P)
      P->release();
  }

  /// Bitwise copy of tag + payload (refcounts handled by callers).
  void rawCopyFrom(const Value &O) {
    __builtin_memcpy(static_cast<void *>(this), &O, sizeof(Value));
  }

  Tag T;
  union {
    int32_t I;
    double D;
    Complex C;
    GcObject *P;
  };
};

/// Generic vector ("list") object; defined after Value. Lists hold arbitrary
/// Values (closures, environments, other lists), so they can sit on a cycle
/// and enroll with the cycle collector.
class ListObj : public GcObject {
public:
  explicit ListObj(std::vector<Value> V) : D(std::move(V)) {
    trackAlloc(sizeof(Value) * D.size() + 32);
    enrollGc();
  }

  void gcTrace(GcVisitor &V) const override {
    for (const Value &E : D)
      if (GcObject *O = E.heapPayload())
        V.visit(O);
  }
  void gcClear() override { D.clear(); }

  /// Call after growing \c D in place so heap accounting follows the
  /// current size.
  void retrack() { retrackAlloc(sizeof(Value) * D.size() + 32); }

  std::vector<Value> D;
};

inline ListObj *Value::listObj() const {
  assert(T == Tag::List);
  return static_cast<ListObj *>(P);
}

//===----------------------------------------------------------------------===//
// Element access, declared once
//===----------------------------------------------------------------------===//
//
// One read and one store kernel per element type (int8_t for logicals,
// int32_t, double, Complex). extract2 and assign2 run them for their
// numeric kinds, and so do LowCode's typed element ops on both backends,
// so every tier raises the same errors and copies, grows and re-tracks a
// container the same way. They are always inlined, with their error and
// copy-or-grow paths out of line: the typed ops are the hottest helpers of
// optimized code, and GCC keeps a kernel called from the interpreter's
// large dispatch loop out of line otherwise.

/// The vector tag of element type \p T and its scalar, unchecked.
template <typename T> struct ElemKind;
template <> struct ElemKind<int8_t> {
  static constexpr Tag Vec = Tag::LglVec;
  static int8_t scalar(const Value &X) { return X.asLglUnchecked() ? 1 : 0; }
};
template <> struct ElemKind<int32_t> {
  static constexpr Tag Vec = Tag::IntVec;
  static int32_t scalar(const Value &X) { return X.asIntUnchecked(); }
};
template <> struct ElemKind<double> {
  static constexpr Tag Vec = Tag::RealVec;
  static double scalar(const Value &X) { return X.asRealUnchecked(); }
};
template <> struct ElemKind<Complex> {
  static constexpr Tag Vec = Tag::CplxVec;
  static Complex scalar(const Value &X) { return X.asCplxUnchecked(); }
};

/// How far past its end one element store may grow a container.
inline constexpr int64_t MaxStoreGrowth = 1024 * 1024;

/// Raises the error of an index x[[Idx]] reads out of range.
[[noreturn]] void subscriptOutOfBounds(int64_t Idx);
/// Raises the error of a store index that checkStoreIndex rejects.
[[noreturn]] void badStoreIndex(int64_t Idx);

/// Raises unless x[[Idx]] <- v may store into a container of length \p Len:
/// Idx is at least 1 and at most MaxStoreGrowth past the end.
inline void checkStoreIndex(int64_t Idx, int64_t Len) {
  if (Idx < 1 || Idx > Len + MaxStoreGrowth)
    badStoreIndex(Idx);
}

/// \p X as a vector: a numeric scalar or a string becomes its one-element
/// vector; anything else is returned as it is.
Value vectorOf(const Value &X);

/// x[[Idx]] of a vector of \p T's kind or, widened, its scalar.
template <typename T>
[[gnu::always_inline]] inline T readElem(const Value &X, int64_t Idx) {
  if (X.tag() == ElemKind<T>::Vec) {
    const std::vector<T> &D = static_cast<VecObj<T> *>(X.object())->D;
    if (Idx >= 1 && static_cast<uint64_t>(Idx) <= D.size())
      return D[Idx - 1];
  } else if (Idx == 1) {
    return ElemKind<T>::scalar(X);
  }
  subscriptOutOfBounds(Idx);
}

/// elemSlot's slow path, out of line so the fast path inlines: makes the
/// container \p X holds its own, copying a shared one (counted in
/// cow_copies), and grows it, zero-filled, when \p Idx is past its end,
/// re-tracking its heap bytes.
template <typename ObjT>
[[gnu::noinline]] ObjT *prepareStore(Value &X, int64_t Idx) {
  auto *O = static_cast<ObjT *>(X.object());
  if (O->refCount() != 1) {
    ++stats().CowCopies;
    O = new ObjT(O->D);
    X = Value::adopt(X.tag(), O);
  }
  if (static_cast<uint64_t>(Idx) > O->D.size()) {
    O->D.resize(Idx);
    O->retrack();
  }
  return O;
}

/// Element \p Idx (checked) of the container object \p ObjT that \p X
/// holds, ready to be written.
template <typename ObjT>
[[gnu::always_inline]] inline auto &elemSlot(Value &X, int64_t Idx) {
  auto *O = static_cast<ObjT *>(X.object());
  if (O->refCount() != 1 || static_cast<uint64_t>(Idx) > O->D.size())
    O = prepareStore<ObjT>(X, Idx);
  return O->D[Idx - 1];
}

/// x[[Idx]] <- \p Elem into a vector of \p T's kind or, widened, its scalar
/// (boxed first into its one-element vector). Raises before X changes.
template <typename T>
[[gnu::always_inline]] inline void storeElem(Value &X, int64_t Idx, T Elem) {
  if (X.tag() == ElemKind<T>::Vec) {
    auto *O = static_cast<VecObj<T> *>(X.object());
    checkStoreIndex(Idx, static_cast<int64_t>(O->D.size()));
  } else {
    checkStoreIndex(Idx, 1);
    X = vectorOf(X);
  }
  elemSlot<VecObj<T>>(X, Idx) = Elem;
}

//===----------------------------------------------------------------------===//
// Operations (R semantics)
//===----------------------------------------------------------------------===//

/// Binary operator kinds shared by AST, bytecode and IR.
enum class BinOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Pow,
  Mod,  ///< %% (numeric modulo)
  IDiv, ///< %/%
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And, ///< && (scalar)
  Or,  ///< || (scalar)
  Colon, ///< a:b sequence
};

/// True for the six comparison operators, Eq..Ge above, whose result is a
/// logical.
inline bool isComparison(BinOp Op) {
  return Op >= BinOp::Eq && Op <= BinOp::Ge;
}

const char *binOpName(BinOp Op);

/// Evaluates \p Op with full R coercion/recycling semantics. This is the
/// generic (slow) path the baseline interpreter always takes and optimized
/// code falls back to when operands are not specialized.
Value genericBinary(BinOp Op, const Value &A, const Value &B);

/// Unary minus / logical not.
Value genericNeg(const Value &A);
Value genericNot(const Value &A);

/// \p V coerced to the numeric scalar kind \p Kind (Lgl, Int, Real or
/// Cplx); raises when V is not numeric.
Value coerceScalar(const Value &V, Tag Kind);

/// x[[i]] with a 1-based index; raises RError when out of bounds.
Value extract2(const Value &X, int64_t Idx);

/// x[i] — scalar index returns a length-one value of the same type;
/// integer-vector index returns a sub-vector; logical mask unsupported.
Value extract1(const Value &X, const Value &Idx);

/// x[[i]] <- V into the container \p X: updates an unshared container in
/// place and copies a shared one first; grows the vector (NA-filling) when
/// Idx == length+1 like R, promotes element type as needed, and promotes
/// NULL to a vector of V's type. Every error is raised before X changes.
void assign2(Value &X, int64_t Idx, const Value &V);

/// Creates the a:b sequence: integers when a is integral, doubles
/// otherwise. Raises for a NaN bound, a sequence longer than 2^28 and an
/// integer sequence that leaves the int32 range.
Value colonSeq(const Value &A, const Value &B);

} // namespace rjit

#endif // RJIT_RUNTIME_VALUE_H
