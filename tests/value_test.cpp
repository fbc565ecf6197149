//===-- tests/value_test.cpp - Runtime value unit tests --------------------===//

#include "runtime/arith.h"
#include "runtime/builtins.h"
#include "runtime/env.h"
#include "runtime/value.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace rjit;

namespace {

Value bi(BuiltinId Id, std::vector<Value> Args) {
  return callBuiltin(Id, Args.data(), Args.size());
}

} // namespace

//===----------------------------------------------------------------------===//
// Scalars & tags

TEST(Value, ScalarBasics) {
  EXPECT_EQ(Value::integer(3).tag(), Tag::Int);
  EXPECT_EQ(Value::integer(3).asIntUnchecked(), 3);
  EXPECT_EQ(Value::real(2.5).asRealUnchecked(), 2.5);
  EXPECT_TRUE(Value::lgl(true).asLglUnchecked());
  EXPECT_EQ(Value::nil().tag(), Tag::Null);
  Complex C = Value::cplx(1, -2).asCplxUnchecked();
  EXPECT_EQ(C.Re, 1);
  EXPECT_EQ(C.Im, -2);
}

TEST(Value, Lengths) {
  EXPECT_EQ(Value::nil().length(), 0);
  EXPECT_EQ(Value::integer(1).length(), 1);
  EXPECT_EQ(Value::intVec({1, 2, 3}).length(), 3);
  EXPECT_EQ(Value::list({Value::integer(1), Value::nil()}).length(), 2);
}

TEST(Value, TagPredicates) {
  EXPECT_TRUE(isScalarTag(Tag::Int));
  EXPECT_FALSE(isScalarTag(Tag::IntVec));
  EXPECT_TRUE(isNumVecTag(Tag::RealVec));
  EXPECT_EQ(scalarTagOf(Tag::RealVec), Tag::Real);
  EXPECT_EQ(vectorTagOf(Tag::Cplx), Tag::CplxVec);
}

TEST(Value, RefcountCopySemantics) {
  Value A = Value::realVec({1, 2, 3});
  EXPECT_TRUE(A.unshared());
  Value B = A;
  EXPECT_FALSE(A.unshared());
  B = Value::nil();
  EXPECT_TRUE(A.unshared());
}

TEST(Value, HeapAccounting) {
  uint64_t Before = heapStats().LiveBytes;
  {
    Value A = Value::realVec(std::vector<double>(1000, 1.0));
    EXPECT_GT(heapStats().LiveBytes, Before);
  }
  EXPECT_EQ(heapStats().LiveBytes, Before);
}

TEST(Value, HeapAccountingTracksGrowth) {
  // Out-of-bounds subscript assignment grows the backing vector in place;
  // accounting must follow the growth, not just the construction size
  // (LiveBytes/PeakBytes are the Fig. 6 memory stand-in).
  uint64_t Before = heapStats().LiveBytes;
  {
    Value A = Value::intVec({1});
    assign2(A, 50000, Value::integer(7));
    EXPECT_GE(heapStats().LiveBytes, Before + 50000 * sizeof(int32_t));
    EXPECT_EQ(A.length(), 50000);
  }
  EXPECT_EQ(heapStats().LiveBytes, Before);
}

TEST(Value, HeapAccountingTracksListGrowth) {
  uint64_t Before = heapStats().LiveBytes;
  {
    Value L = Value::list({Value::integer(1)});
    assign2(L, 1000, Value::real(2.5));
    EXPECT_GE(heapStats().LiveBytes, Before + 1000 * sizeof(Value));
    EXPECT_EQ(L.length(), 1000);
  }
  EXPECT_EQ(heapStats().LiveBytes, Before);
}

//===----------------------------------------------------------------------===//
// Arithmetic semantics

TEST(Arith, IntStaysInt) {
  Value R = genericBinary(BinOp::Add, Value::integer(2), Value::integer(3));
  EXPECT_EQ(R.tag(), Tag::Int);
  EXPECT_EQ(R.asIntUnchecked(), 5);
}

TEST(Arith, DivisionProducesReal) {
  Value R = genericBinary(BinOp::Div, Value::integer(7), Value::integer(2));
  EXPECT_EQ(R.tag(), Tag::Real);
  EXPECT_DOUBLE_EQ(R.asRealUnchecked(), 3.5);
}

TEST(Arith, MixedIntRealPromotes) {
  Value R = genericBinary(BinOp::Mul, Value::integer(2), Value::real(0.5));
  EXPECT_EQ(R.tag(), Tag::Real);
  EXPECT_DOUBLE_EQ(R.asRealUnchecked(), 1.0);
}

TEST(Arith, ComplexPromotes) {
  Value R = genericBinary(BinOp::Add, Value::real(1), Value::cplx(0, 1));
  EXPECT_EQ(R.tag(), Tag::Cplx);
  EXPECT_EQ(R.asCplxUnchecked().Re, 1);
  EXPECT_EQ(R.asCplxUnchecked().Im, 1);
}

TEST(Arith, ComplexMultiply) {
  Value R = genericBinary(BinOp::Mul, Value::cplx(1, 2), Value::cplx(3, 4));
  EXPECT_EQ(R.asCplxUnchecked().Re, -5);
  EXPECT_EQ(R.asCplxUnchecked().Im, 10);
}

TEST(Arith, RModuloSignOfDivisor) {
  EXPECT_EQ(genericBinary(BinOp::Mod, Value::integer(-7), Value::integer(3))
                .asIntUnchecked(),
            2);
  EXPECT_EQ(genericBinary(BinOp::Mod, Value::integer(7), Value::integer(-3))
                .asIntUnchecked(),
            -2);
}

TEST(Arith, IntegerDivisionFloors) {
  EXPECT_EQ(genericBinary(BinOp::IDiv, Value::integer(-7), Value::integer(2))
                .asIntUnchecked(),
            -4);
}

TEST(Arith, PowIsReal) {
  Value R = genericBinary(BinOp::Pow, Value::integer(2), Value::integer(10));
  EXPECT_EQ(R.tag(), Tag::Real);
  EXPECT_DOUBLE_EQ(R.asRealUnchecked(), 1024.0);
}

TEST(Arith, LogicalActsAsInt) {
  Value R = genericBinary(BinOp::Add, Value::lgl(true), Value::integer(2));
  EXPECT_EQ(R.tag(), Tag::Int);
  EXPECT_EQ(R.asIntUnchecked(), 3);
}

TEST(Arith, VectorScalarRecycling) {
  Value V = Value::realVec({1, 2, 3});
  Value R = genericBinary(BinOp::Mul, V, Value::real(2));
  ASSERT_EQ(R.tag(), Tag::RealVec);
  EXPECT_EQ(R.realVecObj()->D, (std::vector<double>{2, 4, 6}));
}

TEST(Arith, VectorVectorElementwise) {
  Value A = Value::intVec({1, 2, 3});
  Value B = Value::intVec({10, 20, 30});
  Value R = genericBinary(BinOp::Add, A, B);
  ASSERT_EQ(R.tag(), Tag::IntVec);
  EXPECT_EQ(R.intVecObj()->D, (std::vector<int32_t>{11, 22, 33}));
}

TEST(Arith, LengthMismatchRaises) {
  Value A = Value::intVec({1, 2, 3});
  Value B = Value::intVec({1, 2});
  EXPECT_THROW(genericBinary(BinOp::Add, A, B), RError);
}

TEST(Arith, NonNumericRaises) {
  EXPECT_THROW(genericBinary(BinOp::Add, Value::str("x"), Value::integer(1)),
               RError);
}

TEST(Arith, StringEqualityWorks) {
  EXPECT_TRUE(genericBinary(BinOp::Eq, Value::str("a"), Value::str("a"))
                  .asLglUnchecked());
  EXPECT_TRUE(genericBinary(BinOp::Ne, Value::str("a"), Value::str("b"))
                  .asLglUnchecked());
}

TEST(Arith, Comparisons) {
  EXPECT_TRUE(genericBinary(BinOp::Lt, Value::integer(1), Value::real(1.5))
                  .asLglUnchecked());
  EXPECT_FALSE(genericBinary(BinOp::Ge, Value::integer(1), Value::real(1.5))
                   .asLglUnchecked());
  EXPECT_TRUE(genericBinary(BinOp::Eq, Value::cplx(1, 1), Value::cplx(1, 1))
                  .asLglUnchecked());
  EXPECT_THROW(genericBinary(BinOp::Lt, Value::cplx(1, 1), Value::cplx(1, 2)),
               RError);
}

TEST(Arith, ShortCircuitOps) {
  EXPECT_TRUE(genericBinary(BinOp::Or, Value::lgl(false), Value::lgl(true))
                  .asLglUnchecked());
  EXPECT_FALSE(genericBinary(BinOp::And, Value::lgl(true), Value::lgl(false))
                   .asLglUnchecked());
}

TEST(Arith, UnaryOps) {
  EXPECT_EQ(genericNeg(Value::integer(4)).asIntUnchecked(), -4);
  EXPECT_DOUBLE_EQ(genericNeg(Value::real(2.5)).asRealUnchecked(), -2.5);
  EXPECT_EQ(genericNeg(Value::cplx(1, 2)).asCplxUnchecked().Im, -2);
  EXPECT_FALSE(genericNot(Value::lgl(true)).asLglUnchecked());
}

//===----------------------------------------------------------------------===//
// Sequences & indexing

TEST(Seq, ColonIntAscending) {
  Value R = colonSeq(Value::integer(1), Value::integer(5));
  ASSERT_EQ(R.tag(), Tag::IntVec);
  EXPECT_EQ(R.intVecObj()->D, (std::vector<int32_t>{1, 2, 3, 4, 5}));
}

TEST(Seq, ColonDescending) {
  Value R = colonSeq(Value::integer(3), Value::integer(1));
  EXPECT_EQ(R.intVecObj()->D, (std::vector<int32_t>{3, 2, 1}));
}

TEST(Seq, ColonChecksItsBoundsBeforeConverting) {
  EXPECT_THROW(colonSeq(Value::integer(1), Value::real(NAN)), RError);
  EXPECT_THROW(colonSeq(Value::real(1), Value::real(1e300)), RError);
  EXPECT_THROW(colonSeq(Value::real(3e9), Value::real(3e9 + 1)), RError)
      << "no wrapped integers";
  EXPECT_THROW(colonSeq(Value::integer(2147483647), Value::real(2147483648.0)),
               RError);
  Value R = colonSeq(Value::integer(2147483646), Value::real(2147483647.0));
  EXPECT_EQ(R.show(), "c(2147483646L, 2147483647L)");
  EXPECT_EQ(colonSeq(Value::real(0.5), Value::real(1.5)).show(), "c(0.5, 1.5)");
}

TEST(Seq, RealToIntTruncatesOrGivesNA) {
  EXPECT_EQ(realToInt(2.9), 2);
  EXPECT_EQ(realToInt(-2.9), -2);
  EXPECT_EQ(realToInt(2147483647.5), 2147483647);
  EXPECT_EQ(realToInt(-2147483648.5), INT32_MIN);
  for (double D : {1e10, -1e10, 2147483648.0, double(NAN), double(INFINITY)})
    EXPECT_EQ(realToInt(D), INT32_MIN) << D;
  EXPECT_EQ(Value::real(1e10).toInt(), INT32_MIN);
}

TEST(Index, Extract2Basics) {
  Value V = Value::realVec({10, 20, 30});
  EXPECT_DOUBLE_EQ(extract2(V, 2).asRealUnchecked(), 20);
  EXPECT_THROW(extract2(V, 0), RError);
  EXPECT_THROW(extract2(V, 4), RError);
}

TEST(Index, Extract2OnScalar) {
  EXPECT_EQ(extract2(Value::integer(7), 1).asIntUnchecked(), 7);
  EXPECT_THROW(extract2(Value::integer(7), 2), RError);
}

TEST(Index, Extract2List) {
  Value L = Value::list({Value::str("a"), Value::intVec({1, 2})});
  EXPECT_EQ(extract2(L, 1).tag(), Tag::Str);
  EXPECT_EQ(extract2(L, 2).length(), 2);
}

TEST(Index, Extract1SubVector) {
  Value V = Value::intVec({10, 20, 30, 40});
  Value R = extract1(V, Value::intVec({2, 4}));
  ASSERT_EQ(R.tag(), Tag::IntVec);
  EXPECT_EQ(R.intVecObj()->D, (std::vector<int32_t>{20, 40}));
}

TEST(Index, Assign2InPlaceWhenUnshared) {
  Value V = Value::realVec({1, 2, 3});
  const void *Obj = V.object();
  assign2(V, 2, Value::real(9));
  EXPECT_EQ(V.object(), Obj) << "unshared vector should mutate in place";
  EXPECT_DOUBLE_EQ(extract2(V, 2).asRealUnchecked(), 9);
}

TEST(Index, Assign2CopiesWhenShared) {
  Value V = Value::realVec({1, 2, 3});
  Value Alias = V;
  Value W = V;
  assign2(W, 2, Value::real(9));
  EXPECT_DOUBLE_EQ(extract2(Alias, 2).asRealUnchecked(), 2)
      << "copy-on-write must preserve the alias";
  EXPECT_DOUBLE_EQ(extract2(W, 2).asRealUnchecked(), 9);
}

TEST(Index, Assign2PromotesIntVecToReal) {
  Value V = Value::intVec({1, 2, 3});
  assign2(V, 2, Value::real(2.5));
  ASSERT_EQ(V.tag(), Tag::RealVec);
  EXPECT_DOUBLE_EQ(extract2(V, 2).asRealUnchecked(), 2.5);
}

TEST(Index, Assign2PromotesRealVecToComplex) {
  Value V = Value::realVec({1, 2});
  assign2(V, 1, Value::cplx(0, 1));
  ASSERT_EQ(V.tag(), Tag::CplxVec);
  EXPECT_EQ(extract2(V, 1).asCplxUnchecked().Im, 1);
}

TEST(Index, Assign2GrowsVector) {
  Value V = Value::intVec({1});
  assign2(V, 3, Value::integer(7));
  EXPECT_EQ(V.length(), 3);
  EXPECT_EQ(extract2(V, 3).asIntUnchecked(), 7);
}

TEST(Index, Assign2NullCreatesContainer) {
  Value V = Value::nil();
  assign2(V, 1, Value::real(1.5));
  ASSERT_EQ(V.tag(), Tag::RealVec);
  EXPECT_EQ(V.length(), 1);
}

TEST(Index, Assign2NullWithVectorElementMakesList) {
  Value V = Value::nil();
  assign2(V, 1, Value::intVec({1, 2}));
  ASSERT_EQ(V.tag(), Tag::List);
  EXPECT_EQ(extract2(V, 1).length(), 2);
}

TEST(Index, Assign2ScalarTargetBoxes) {
  Value V = Value::real(1);
  assign2(V, 2, Value::real(2));
  ASSERT_EQ(V.tag(), Tag::RealVec);
  EXPECT_EQ(V.length(), 2);
}

TEST(Index, Assign2RaisesBeforeTouchingTheContainer) {
  // Each error a store can raise leaves the container as it was: an
  // element store into a binding must not clobber the variable.
  struct Case {
    Value X;
    int64_t Idx;
    Value V;
  };
  for (Case C : {Case{Value::realVec({1, 2}), 0, Value::real(5)},
                 Case{Value::realVec({1, 2}), 5000000, Value::real(5)},
                 Case{Value::builtin(BuiltinId::Length), 1, Value::real(3)},
                 Case{Value::strVec({"a", "b"}), 1, Value::integer(7)},
                 Case{Value::str("a"), 2, Value::real(1)}}) {
    const std::string Before = C.X.show();
    const Tag T = C.X.tag();
    SCOPED_TRACE(Before);
    EXPECT_THROW(assign2(C.X, C.Idx, C.V), RError);
    EXPECT_EQ(C.X.tag(), T);
    EXPECT_EQ(C.X.show(), Before);
  }
}

//===----------------------------------------------------------------------===//
// The element kernels every tier runs

TEST(ElemKernel, ReadsAVectorOrItsScalar) {
  Value V = Value::realVec({10, 20});
  EXPECT_EQ(readElem<double>(V, 2), 20);
  EXPECT_EQ(readElem<int32_t>(Value::integer(7), 1), 7);
  EXPECT_EQ(readElem<int8_t>(Value::lgl(true), 1), 1);
  for (int64_t Idx : {int64_t(0), int64_t(3), int64_t(-1)})
    EXPECT_THROW(readElem<double>(V, Idx), RError) << Idx;
  EXPECT_THROW(readElem<Complex>(Value::cplx(1, 1), 2), RError);
}

TEST(ElemKernel, StoreErrorsComeBeforeTheContainerChanges) {
  Value V = Value::realVec({1, 2});
  const GcObject *Obj = V.object();
  for (int64_t Idx : {int64_t(0), 2 + MaxStoreGrowth + 1}) {
    SCOPED_TRACE(Idx);
    EXPECT_THROW(storeElem(V, Idx, 5.0), RError);
    EXPECT_EQ(V.object(), Obj);
    EXPECT_EQ(V.show(), "c(1, 2)");
  }
  Value S = Value::integer(4);
  EXPECT_THROW(storeElem(S, 2 + MaxStoreGrowth, 5), RError);
  EXPECT_EQ(S.tag(), Tag::Int) << "the scalar is boxed only once it fits";
  storeElem(V, 2 + MaxStoreGrowth, 5.0); // the farthest store that fits
  EXPECT_EQ(V.length(), 2 + MaxStoreGrowth);
}

TEST(ElemKernel, SharedStoreCopiesOnceUnsharedNever) {
  Value V = Value::intVec({1, 2, 3});
  const GcObject *Obj = V.object();
  uint64_t Copies = stats().CowCopies;
  storeElem(V, 2, 9);
  EXPECT_EQ(V.object(), Obj) << "an unshared vector is written in place";
  EXPECT_EQ(stats().CowCopies, Copies);

  Value Alias = V;
  storeElem(V, 1, 8);
  storeElem(V, 3, 7); // V owns its copy now
  EXPECT_EQ(stats().CowCopies, Copies + 1);
  EXPECT_EQ(Alias.show(), "c(1L, 9L, 3L)");
  EXPECT_EQ(V.show(), "c(8L, 9L, 7L)");
}

TEST(ElemKernel, ScalarContainerBoxesAndGrowthRetracks) {
  Value C = Value::cplx(1, 0);
  storeElem(C, 2, Complex{0, 1});
  ASSERT_EQ(C.tag(), Tag::CplxVec);
  EXPECT_EQ(C.show(), "c(1+0i, 0+1i)");

  uint64_t Before = heapStats().LiveBytes;
  {
    Value L = Value::lglVec({1});
    storeElem<int8_t>(L, 40000, 1);
    EXPECT_GE(heapStats().LiveBytes, Before + 40000 * sizeof(int8_t));
    EXPECT_EQ(L.length(), 40000);
    EXPECT_EQ(readElem<int8_t>(L, 39999), 0) << "growth zero-fills";
  }
  EXPECT_EQ(heapStats().LiveBytes, Before);
}

//===----------------------------------------------------------------------===//
// Environments

TEST(Environment, SetGet) {
  Env *E = new Env(nullptr);
  E->retain();
  E->set(symbol("x"), Value::integer(1));
  EXPECT_EQ(E->get(symbol("x")).asIntUnchecked(), 1);
  EXPECT_THROW(E->get(symbol("nope")), RError);
  E->release();
}

TEST(Environment, ParentLookup) {
  Env *P = new Env(nullptr);
  P->retain();
  P->set(symbol("x"), Value::integer(1));
  Env *C = new Env(P);
  C->retain();
  EXPECT_EQ(C->get(symbol("x")).asIntUnchecked(), 1);
  C->set(symbol("x"), Value::integer(2));
  EXPECT_EQ(C->get(symbol("x")).asIntUnchecked(), 2);
  EXPECT_EQ(P->get(symbol("x")).asIntUnchecked(), 1) << "shadowing is local";
  C->release();
  P->release();
}

TEST(Environment, SuperAssign) {
  Env *P = new Env(nullptr);
  P->retain();
  P->set(symbol("x"), Value::integer(1));
  Env *C = new Env(P);
  C->retain();
  C->setSuper(symbol("x"), Value::integer(5));
  EXPECT_EQ(P->get(symbol("x")).asIntUnchecked(), 5);
  EXPECT_FALSE(C->hasLocal(symbol("x")));
  C->release();
  P->release();
}

TEST(Environment, FirstClass) {
  Env *E = new Env(nullptr);
  Value V = Value::environment(E);
  EXPECT_EQ(V.tag(), Tag::EnvTag);
  EXPECT_EQ(V.env(), E);
}

//===----------------------------------------------------------------------===//
// Builtins

TEST(Builtin, LengthAndC) {
  Value V = bi(BuiltinId::Concat,
               {Value::integer(1), Value::intVec({2, 3}), Value::integer(4)});
  ASSERT_EQ(V.tag(), Tag::IntVec);
  EXPECT_EQ(V.length(), 4);
  EXPECT_EQ(bi(BuiltinId::Length, {V}).asIntUnchecked(), 4);
}

TEST(Builtin, CPromotes) {
  Value V = bi(BuiltinId::Concat, {Value::integer(1), Value::real(2.5)});
  EXPECT_EQ(V.tag(), Tag::RealVec);
  Value W = bi(BuiltinId::Concat, {Value::real(1), Value::cplx(0, 1)});
  EXPECT_EQ(W.tag(), Tag::CplxVec);
}

TEST(Builtin, CEmptyIsNull) {
  Value V = bi(BuiltinId::Concat, {});
  EXPECT_TRUE(V.isNull());
}

TEST(Builtin, Ctors) {
  EXPECT_EQ(bi(BuiltinId::NumericCtor, {Value::integer(3)}).length(), 3);
  EXPECT_EQ(bi(BuiltinId::IntegerCtor, {Value::integer(2)}).tag(),
            Tag::IntVec);
  EXPECT_EQ(bi(BuiltinId::ListCtor, {Value::integer(1), Value::nil()}).tag(),
            Tag::List);
  Value V = bi(BuiltinId::VectorCtor, {Value::str("list"), Value::integer(4)});
  EXPECT_EQ(V.tag(), Tag::List);
  EXPECT_EQ(V.length(), 4);
}

TEST(Builtin, NegativeLengthsRaiseAnRError) {
  // An RError, not std::length_error: the REPL catches only RError.
  const std::pair<BuiltinId, std::vector<Value>> Calls[] = {
      {BuiltinId::IntegerCtor, {Value::integer(-1)}},
      {BuiltinId::NumericCtor, {Value::real(-2)}},
      {BuiltinId::ComplexCtor, {Value::integer(-1)}},
      {BuiltinId::LogicalCtor, {Value::integer(-3)}},
      {BuiltinId::CharacterCtor, {Value::integer(-1)}},
      {BuiltinId::VectorCtor, {Value::str("integer"), Value::integer(-1)}},
      {BuiltinId::SeqLen, {Value::integer(-1)}},
      {BuiltinId::Runif, {Value::integer(-1)}}};
  for (const auto &[Id, Args] : Calls) {
    SCOPED_TRACE(builtinName(Id));
    try {
      bi(Id, Args);
      ADD_FAILURE() << "no error";
    } catch (const RError &E) {
      EXPECT_STREQ(E.what(), "invalid 'length' argument");
    }
  }
}

TEST(Builtin, Math) {
  EXPECT_DOUBLE_EQ(bi(BuiltinId::Sqrt, {Value::real(9)}).asRealUnchecked(), 3);
  EXPECT_DOUBLE_EQ(bi(BuiltinId::Floor, {Value::real(2.7)}).asRealUnchecked(),
                   2);
  EXPECT_EQ(bi(BuiltinId::Abs, {Value::integer(-4)}).asIntUnchecked(), 4);
  // abs on complex is Mod.
  EXPECT_DOUBLE_EQ(bi(BuiltinId::Abs, {Value::cplx(3, 4)}).asRealUnchecked(),
                   5);
}

TEST(Builtin, SumFollowsLadder) {
  EXPECT_EQ(bi(BuiltinId::Sum, {Value::intVec({1, 2, 3})}).tag(), Tag::Int);
  EXPECT_EQ(bi(BuiltinId::Sum, {Value::realVec({1, 2})}).tag(), Tag::Real);
  Value C = bi(BuiltinId::Sum, {Value::cplxVec({{1, 1}, {2, -1}})});
  EXPECT_EQ(C.tag(), Tag::Cplx);
  EXPECT_EQ(C.asCplxUnchecked().Re, 3);
}

TEST(Builtin, MinMax) {
  EXPECT_EQ(bi(BuiltinId::Min, {Value::intVec({3, 1, 2})}).asIntUnchecked(),
            1);
  EXPECT_DOUBLE_EQ(
      bi(BuiltinId::Max, {Value::real(1.5), Value::integer(1)})
          .asRealUnchecked(),
      1.5);
}

TEST(Builtin, ComplexParts) {
  EXPECT_DOUBLE_EQ(bi(BuiltinId::Re, {Value::cplx(3, 4)}).asRealUnchecked(),
                   3);
  EXPECT_DOUBLE_EQ(bi(BuiltinId::Im, {Value::cplx(3, 4)}).asRealUnchecked(),
                   4);
  EXPECT_DOUBLE_EQ(bi(BuiltinId::ModC, {Value::cplx(3, 4)}).asRealUnchecked(),
                   5);
}

TEST(Builtin, RevPreservesKind) {
  Value V = bi(BuiltinId::Rev, {Value::intVec({1, 2, 3})});
  ASSERT_EQ(V.tag(), Tag::IntVec);
  EXPECT_EQ(V.intVecObj()->D, (std::vector<int32_t>{3, 2, 1}));
}

TEST(Builtin, Coercions) {
  EXPECT_EQ(bi(BuiltinId::AsInteger, {Value::real(2.9)}).asIntUnchecked(), 2);
  Value RV = bi(BuiltinId::AsNumeric, {Value::intVec({1, 2})});
  EXPECT_EQ(RV.tag(), Tag::RealVec);
  Value CV = bi(BuiltinId::AsComplex, {Value::realVec({1, 2})});
  EXPECT_EQ(CV.tag(), Tag::CplxVec);
}

TEST(Builtin, Strings) {
  EXPECT_EQ(bi(BuiltinId::Nchar, {Value::str("hello")}).asIntUnchecked(), 5);
  EXPECT_EQ(bi(BuiltinId::Substr,
               {Value::str("hello"), Value::integer(2), Value::integer(4)})
                .strObj()
                ->D,
            "ell");
  EXPECT_EQ(
      bi(BuiltinId::Paste0, {Value::str("a"), Value::integer(1)}).strObj()->D,
      "a1L");
}

TEST(Builtin, RunifDeterministic) {
  bi(BuiltinId::SetSeed, {Value::integer(99)});
  Value A = bi(BuiltinId::Runif, {});
  bi(BuiltinId::SetSeed, {Value::integer(99)});
  Value B = bi(BuiltinId::Runif, {});
  EXPECT_EQ(A.asRealUnchecked(), B.asRealUnchecked());
}

TEST(Builtin, Bitwise) {
  EXPECT_EQ(bi(BuiltinId::BitwAnd, {Value::integer(6), Value::integer(3)})
                .asIntUnchecked(),
            2);
  EXPECT_EQ(bi(BuiltinId::BitwShiftL, {Value::integer(1), Value::integer(4)})
                .asIntUnchecked(),
            16);
}

TEST(Builtin, StopRaises) {
  EXPECT_THROW(bi(BuiltinId::Stop, {Value::str("boom")}), RError);
}

TEST(Builtin, InstallBindsNames) {
  Env *G = new Env(nullptr);
  G->retain();
  installBuiltins(*G);
  EXPECT_EQ(G->get(symbol("length")).tag(), Tag::Builtin);
  EXPECT_EQ(G->get(symbol("sqrt")).builtinId(), BuiltinId::Sqrt);
  G->release();
}

TEST(Builtin, Identical) {
  EXPECT_TRUE(bi(BuiltinId::Identical,
                 {Value::intVec({1, 2}), Value::intVec({1, 2})})
                  .asLglUnchecked());
  EXPECT_FALSE(bi(BuiltinId::Identical,
                  {Value::intVec({1, 2}), Value::intVec({1, 3})})
                   .asLglUnchecked());
}
