//===-- tests/osr_test.cpp - OSR machinery unit tests ----------------------===//

#include "lowcode/exec.h"
#include "osr/deoptless.h"
#include "osr/reason.h"
#include "runtime/context.h"

#include <gtest/gtest.h>

using namespace rjit;

namespace {

DeoptContext ctx(int32_t Pc, DeoptReasonKind Kind, Tag Actual,
                 std::vector<Tag> Stack,
                 std::vector<std::pair<Symbol, Tag>> Env) {
  DeoptContext C;
  C.Pc = Pc;
  C.Reason.Kind = Kind;
  C.Reason.ReasonPc = Pc;
  C.Reason.ActualTag = Actual;
  C.StackSize = static_cast<uint16_t>(Stack.size());
  for (size_t K = 0; K < Stack.size(); ++K)
    C.StackTags[K] = Stack[K];
  C.EnvSize = static_cast<uint16_t>(Env.size());
  for (size_t K = 0; K < Env.size(); ++K)
    C.EnvEntries[K] = Env[K];
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// The partial order of paper Listing 7

TEST(DeoptContext, Reflexive) {
  DeoptContext A = ctx(5, DeoptReasonKind::Typecheck, Tag::RealVec,
                       {Tag::Int}, {{symbol("x"), Tag::Real}});
  EXPECT_TRUE(A <= A);
}

TEST(DeoptContext, DifferentTargetIncomparable) {
  DeoptContext A = ctx(5, DeoptReasonKind::Typecheck, Tag::RealVec, {}, {});
  DeoptContext B = ctx(6, DeoptReasonKind::Typecheck, Tag::RealVec, {}, {});
  EXPECT_FALSE(A <= B);
  EXPECT_FALSE(B <= A);
}

TEST(DeoptContext, DifferentReasonKindIncomparable) {
  // "a deoptimization on a failing typecheck is not comparable with a
  // deoptimization on a failing dynamic inlining" (§3.1)
  DeoptContext A = ctx(5, DeoptReasonKind::Typecheck, Tag::RealVec, {}, {});
  DeoptContext B = ctx(5, DeoptReasonKind::CallTarget, Tag::Clos, {}, {});
  EXPECT_FALSE(A <= B);
}

TEST(DeoptContext, ScalarMatchesVectorContinuation) {
  // "if we have a continuation for a typecheck, where we observed a float
  // vector ... compatible when we observe a scalar float instead" (§3.1)
  DeoptContext Vec = ctx(5, DeoptReasonKind::Typecheck, Tag::RealVec,
                         {Tag::RealVec}, {{symbol("v"), Tag::RealVec}});
  DeoptContext Scl = ctx(5, DeoptReasonKind::Typecheck, Tag::Real,
                         {Tag::Real}, {{symbol("v"), Tag::Real}});
  EXPECT_TRUE(Scl <= Vec) << "scalar float can use the vector continuation";
  EXPECT_FALSE(Vec <= Scl) << "but not vice versa";
}

TEST(DeoptContext, DifferentLocalNamesIncomparable) {
  // "if there is an additional local variable that does not exist in the
  // continuation context" (§3.1) — our contexts require identical names.
  DeoptContext A = ctx(5, DeoptReasonKind::Typecheck, Tag::RealVec, {},
                       {{symbol("x"), Tag::Int}});
  DeoptContext B = ctx(5, DeoptReasonKind::Typecheck, Tag::RealVec, {},
                       {{symbol("y"), Tag::Int}});
  EXPECT_FALSE(A <= B);
}

TEST(DeoptContext, AntisymmetricOnStackTags) {
  // A <= B and B <= A only when the tags agree exactly: the scalar/vector
  // pair orders strictly.
  DeoptContext Vec = ctx(5, DeoptReasonKind::Typecheck, Tag::RealVec,
                         {Tag::RealVec}, {});
  DeoptContext Scl =
      ctx(5, DeoptReasonKind::Typecheck, Tag::Real, {Tag::Real}, {});
  EXPECT_TRUE(Scl <= Vec);
  EXPECT_FALSE(Vec <= Scl) << "antisymmetry: the order is strict";
  DeoptContext Same = Vec;
  EXPECT_TRUE(Vec <= Same);
  EXPECT_TRUE(Same <= Vec);
}

TEST(DeoptContext, AntisymmetricOnEnvTags) {
  DeoptContext A = ctx(5, DeoptReasonKind::Typecheck, Tag::RealVec, {},
                       {{symbol("x"), Tag::Int}, {symbol("y"), Tag::IntVec}});
  DeoptContext B = ctx(5, DeoptReasonKind::Typecheck, Tag::RealVec, {},
                       {{symbol("x"), Tag::IntVec}, {symbol("y"), Tag::IntVec}});
  EXPECT_TRUE(A <= B) << "scalar binding widens to the vector binding";
  EXPECT_FALSE(B <= A);
}

TEST(DeoptContext, StackHeightMustMatch) {
  DeoptContext A =
      ctx(5, DeoptReasonKind::Typecheck, Tag::RealVec, {Tag::Int}, {});
  DeoptContext B = ctx(5, DeoptReasonKind::Typecheck, Tag::RealVec,
                       {Tag::Int, Tag::Int}, {});
  EXPECT_FALSE(A <= B);
}

TEST(DeoptContext, CallTargetComparesIdentity) {
  DeoptContext A = ctx(5, DeoptReasonKind::CallTarget, Tag::Clos, {}, {});
  DeoptContext B = A;
  Function FnA(symbol("a"), {}), FnB(symbol("b"), {});
  A.Reason.ActualFn = &FnA;
  B.Reason.ActualFn = &FnB;
  EXPECT_FALSE(A <= B);
  B.Reason.ActualFn = &FnA;
  EXPECT_TRUE(A <= B);
}

TEST(DeoptlessCondition, FailedEpochCheckNeverReachesTheTable) {
  // A failed epoch check means a builtin the code folded was really
  // rebound: the code is invalid for good (§4.3), so deoptless refuses
  // before it computes a context, and counts the refusal as
  // deoptless_skip_builtin — inside a running continuation too, where any
  // other failure counts as recursive.
  ExecContext C;
  ContextScope Installed(C);
  LowFunction F;
  F.Conv = CallConv::FullElided;
  DeoptMeta M;
  M.RKind = DeoptReasonKind::BuiltinEpoch;
  M.BcPc = 3;
  CodeTable<DeoptContext> Table(5);
  Value Result;
  SlotView Slots{nullptr, nullptr, nullptr};
  EXPECT_FALSE(tryDeoptless(F, Slots, M, nullptr, false, Table, {}, Result));
  F.Conv = CallConv::Deoptless;
  EXPECT_FALSE(tryDeoptless(F, Slots, M, nullptr, false, Table, {}, Result));
  EXPECT_EQ(C.Stats.DeoptlessSkipBuiltin, 2u);
  EXPECT_EQ(C.Stats.DeoptlessSkipRecursive, 0u);
  EXPECT_EQ(C.Stats.DeoptlessAttempts, 0u);
  EXPECT_EQ(Table.size(), 0u);
}

TEST(DeoptContext, InjectedMatchesAnyReasonDetail) {
  DeoptContext A = ctx(5, DeoptReasonKind::Injected, Tag::Int, {}, {});
  DeoptContext B = ctx(5, DeoptReasonKind::Injected, Tag::RealVec, {}, {});
  EXPECT_TRUE(A <= B) << "the guarded fact holds in both";
}

TEST(DeoptContext, StrRendersKeyFields) {
  DeoptContext A = ctx(7, DeoptReasonKind::Typecheck, Tag::RealVec,
                       {Tag::Int}, {{symbol("acc"), Tag::Real}});
  std::string S = A.str();
  EXPECT_NE(S.find("pc=7"), std::string::npos);
  EXPECT_NE(S.find("typecheck"), std::string::npos);
  EXPECT_NE(S.find("acc"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Parameterized: tag compatibility sweep (property-style)

using TagPair = std::tuple<Tag, Tag, bool>;

class TagCompat : public ::testing::TestWithParam<TagPair> {};

TEST_P(TagCompat, MatchesLatticeRule) {
  auto [Cur, Compiled, Want] = GetParam();
  EXPECT_EQ(tagCompatible(Cur, Compiled), Want);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TagCompat,
    ::testing::Values(
        TagPair{Tag::Int, Tag::Int, true},
        TagPair{Tag::Int, Tag::IntVec, true},   // scalar <= vector
        TagPair{Tag::Real, Tag::RealVec, true},
        TagPair{Tag::Lgl, Tag::LglVec, true},
        TagPair{Tag::Cplx, Tag::CplxVec, true},
        TagPair{Tag::IntVec, Tag::Int, false},  // not the other way
        TagPair{Tag::Int, Tag::RealVec, false}, // no cross-kind widening
        TagPair{Tag::Real, Tag::Int, false},
        TagPair{Tag::List, Tag::List, true},
        TagPair{Tag::Null, Tag::Int, false}));
