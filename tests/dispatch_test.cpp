//===-- tests/dispatch_test.cpp - Contextual dispatch tests ----------------===//
//
// The call-entry generalization of the deoptless dispatch: CallContext
// partial order, the code table's discipline over all three of its keys,
// and the end-to-end behavior of context-specialized function versions
// through the Vm tier manager.
//
//===----------------------------------------------------------------------===//

#include "dispatch/context.h"
#include "dispatch/table.h"
#include "osr/osrin.h"
#include "support/stats.h"
#include "testutil.h"
#include "vm/vm.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace rjit;

namespace {

CallContext ctxOf(std::vector<Tag> Tags, size_t NumParams) {
  std::vector<Value> Args;
  for (Tag T : Tags) {
    switch (T) {
    case Tag::Int:
      Args.push_back(Value::integer(1));
      break;
    case Tag::Real:
      Args.push_back(Value::real(1.5));
      break;
    case Tag::Null:
      Args.push_back(Value::nil());
      break;
    case Tag::IntVec:
      Args.push_back(Value::intVec({1, 2}));
      break;
    case Tag::RealVec:
      Args.push_back(Value::realVec({1.0, 2.0}));
      break;
    default:
      Args.push_back(Value::list({Value::real(1), Value::real(2)}));
      break;
    }
  }
  return computeCallContext(Args, NumParams);
}

Vm::Config dispatchCfg(bool ContextDispatch) {
  Vm::Config C;
  C.Strategy = TierStrategy::Normal;
  C.CompileThreshold = 3;
  C.OsrThreshold = 1000000; // keep OSR-in out of these tests
  C.ContextDispatch = ContextDispatch;
  return C;
}

/// The polymorphic workload: one kernel, callers with different element
/// types.
const char *PolySum = R"(
poly_sum <- function(v, n) {
  total <- 0L
  for (i in 1:n) total <- total + v[[i]]
  total
}
ints <- 1:100
reals <- as.numeric(1:100)
)";

Function *functionNamed(Vm &V, const std::string &Name) {
  Value F = V.eval(Name);
  EXPECT_EQ(F.tag(), Tag::Clos);
  return F.closObj()->Fn;
}

} // namespace

//===----------------------------------------------------------------------===//
// CallContext partial order

TEST(CallContext, Reflexive) {
  CallContext A = ctxOf({Tag::IntVec, Tag::Int}, 2);
  EXPECT_TRUE(A <= A);
}

TEST(CallContext, ArityMismatchIncomparable) {
  CallContext A = ctxOf({Tag::Int}, 1);
  CallContext B = ctxOf({Tag::Int, Tag::Int}, 2);
  EXPECT_FALSE(A <= B);
  EXPECT_FALSE(B <= A);
}

TEST(CallContext, ScalarArgMatchesVectorVersion) {
  // The tagCompatible scalar <= vector rule, applied per argument.
  CallContext Scl = ctxOf({Tag::Real}, 1);
  CallContext Vec = ctxOf({Tag::RealVec}, 1);
  EXPECT_TRUE(Scl <= Vec) << "scalar call can run the vector version";
  EXPECT_FALSE(Vec <= Scl) << "antisymmetry: the order is strict";
}

TEST(CallContext, NoCrossKindWidening) {
  CallContext I = ctxOf({Tag::IntVec}, 1);
  CallContext R = ctxOf({Tag::RealVec}, 1);
  EXPECT_FALSE(I <= R);
  EXPECT_FALSE(R <= I);
}

TEST(CallContext, GenericRootIsTop) {
  CallContext G = genericContext(2);
  EXPECT_TRUE(G.isGeneric());
  EXPECT_TRUE(ctxOf({Tag::IntVec, Tag::Int}, 2) <= G);
  EXPECT_TRUE(ctxOf({Tag::RealVec, Tag::Real}, 2) <= G);
  EXPECT_FALSE(G <= ctxOf({Tag::IntVec, Tag::Int}, 2))
      << "the root assumes nothing about argument types";
}

TEST(CallContext, MoreFlagsIsMoreSpecialized) {
  // A version compiled under CtxNoMissingArgs cannot serve a call with a
  // missing (Null) argument.
  CallContext WithHole = ctxOf({Tag::Int, Tag::Null}, 2);
  EXPECT_FALSE(WithHole.Flags & CtxNoMissingArgs);
  EXPECT_FALSE(WithHole.typed(1)) << "a hole stays untyped";
  CallContext Full = ctxOf({Tag::Int, Tag::Int}, 2);
  EXPECT_TRUE(Full.Flags & CtxNoMissingArgs);
  // Full assumes more than WithHole observed.
  EXPECT_FALSE(WithHole <= Full);
}

TEST(CallContext, WrongArityDropsCorrectArityFlag) {
  std::vector<Value> Args{Value::integer(1)};
  CallContext C = computeCallContext(Args, 2);
  EXPECT_FALSE(C.Flags & CtxCorrectArity);
  EXPECT_FALSE(C <= genericContext(2))
      << "the generic root still assumes matching arity";
}

//===----------------------------------------------------------------------===//
// The code table, once per key: versions, continuations, OSR-in code

namespace {

DeoptContext deoptCtx(int32_t Pc, Tag Actual, std::vector<Tag> Stack) {
  DeoptContext C;
  C.Pc = Pc;
  C.Reason.ReasonPc = Pc;
  C.Reason.ActualTag = Actual;
  C.StackSize = static_cast<uint16_t>(Stack.size());
  for (size_t K = 0; K < Stack.size(); ++K)
    C.StackTags[K] = Stack[K];
  return C;
}

OsrKey osrKey(int32_t Pc, std::vector<Tag> Stack) {
  EntryState E;
  E.Pc = Pc;
  for (Tag T : Stack)
    E.StackTypes.push_back(RType::of(T));
  return OsrKey(E);
}

/// Per key: a key, one its code serves (special <= general wherever the
/// order is more than equality) and distinct bounded keys.
template <typename Key> struct Keys;
template <> struct Keys<CallContext> {
  static CallContext general() { return ctxOf({Tag::RealVec}, 1); }
  static CallContext special() { return ctxOf({Tag::Real}, 1); }
  static CallContext other(size_t K) {
    return ctxOf(std::vector<Tag>(K + 2, Tag::Int), K + 2);
  }
};
template <> struct Keys<DeoptContext> {
  static DeoptContext general() {
    return deoptCtx(5, Tag::RealVec, {Tag::RealVec});
  }
  static DeoptContext special() { return deoptCtx(5, Tag::Real, {Tag::Real}); }
  static DeoptContext other(size_t K) {
    return deoptCtx(static_cast<int32_t>(100 + K), Tag::RealVec, {});
  }
};
template <> struct Keys<OsrKey> {
  static OsrKey general() { return osrKey(5, {Tag::RealVec}); }
  static OsrKey special() { return osrKey(5, {Tag::Real}); }
  static OsrKey other(size_t K) {
    return osrKey(static_cast<int32_t>(100 + K), {});
  }
};

template <typename Key> class CodeTableTest : public ::testing::Test {};
using TableKeys = ::testing::Types<CallContext, DeoptContext, OsrKey>;
TYPED_TEST_SUITE(CodeTableTest, TableKeys);

} // namespace

TYPED_TEST(CodeTableTest, MostSpecializedFirst) {
  using K = Keys<TypeParam>;
  CodeTable<TypeParam> T(4);
  ASSERT_TRUE(T.publish(K::general(), dummyCode()));
  CodeEntry<TypeParam> *G = T.exact(K::general());
  // Before the specialization exists, its query is served by the general
  // entry wherever the order allows it.
  bool Ordered = K::special() <= K::general();
  EXPECT_EQ(T.dispatch(K::special()), Ordered ? G : nullptr);
  EXPECT_EQ(T.dispatch(K::other(0)), nullptr) << "unrelated keys miss";

  ASSERT_TRUE(T.publish(K::special(), dummyCode()));
  CodeEntry<TypeParam> *S = T.exact(K::special());
  ASSERT_NE(S, G);
  EXPECT_EQ(T.dispatch(K::special()), S)
      << "the more specialized entry answers its own query";
  EXPECT_EQ(T.dispatch(K::general()), G);
  if (Ordered) {
    EXPECT_EQ(T.entries().front(), S) << "sorted most specialized first";
  }
}

TYPED_TEST(CodeTableTest, BoundCountsRetiredEntries) {
  using K = Keys<TypeParam>;
  CodeTable<TypeParam> T(2);
  for (size_t I = 0; I < 2; ++I)
    ASSERT_TRUE(T.publish(K::other(I), dummyCode()));
  EXPECT_TRUE(T.full());
  CodeEntry<TypeParam> *E = T.exact(K::other(0));
  ASSERT_NE(E, nullptr);
  {
    std::lock_guard G(T);
    std::unique_ptr<ExecutableCode> Gone = E->retire();
  }
  EXPECT_TRUE(T.full()) << "a retired entry keeps its slot";
  EXPECT_FALSE(T.publish(K::other(2), dummyCode()));
  EXPECT_EQ(T.size(), 2u);
  EXPECT_NE(T.dispatch(K::other(1)), nullptr) << "old entries still serve";
}

TYPED_TEST(CodeTableTest, LostRaceKeepsTheFirstCode) {
  using K = Keys<TypeParam>;
  CodeTable<TypeParam> T(4);
  ASSERT_TRUE(T.publish(K::general(), dummyCode()));
  ExecutableCode *First = T.exact(K::general())->code();
  EXPECT_FALSE(T.publish(K::general(), dummyCode()))
      << "a second publication for a live entry is discarded";
  EXPECT_EQ(T.exact(K::general())->code(), First);

  // A failed compile marks its entry: no later code is installed there,
  // and dispatch skips it.
  EXPECT_FALSE(T.publish(K::special(), nullptr));
  CodeEntry<TypeParam> *Marked = T.exact(K::special());
  ASSERT_NE(Marked, nullptr);
  EXPECT_TRUE(Marked->Blacklisted);
  EXPECT_FALSE(T.publish(K::special(), dummyCode()));
  EXPECT_FALSE(Marked->live());
  EXPECT_NE(T.dispatch(K::special()), Marked);
}

TYPED_TEST(CodeTableTest, RetireKeepsTheEntry) {
  using K = Keys<TypeParam>;
  CodeTable<TypeParam> T(4);
  ASSERT_TRUE(T.publish(K::general(), dummyCode()));
  CodeEntry<TypeParam> *E = T.exact(K::general());
  const LowFunction *Low = E->code()->lowPtr();
  EXPECT_EQ(T.owner(Low), E);
  uint64_t Id = E->ObsId;
  {
    std::lock_guard G(T);
    std::unique_ptr<ExecutableCode> Gone = E->retire();
    E->DeoptCount = 7;
  }
  EXPECT_EQ(T.dispatch(K::general()), nullptr)
      << "retired entries never dispatch";
  EXPECT_EQ(T.owner(Low), nullptr);
  EXPECT_EQ(T.exact(K::general()), E)
      << "but the entry and its counters persist";
  EXPECT_EQ(T.liveCount(), 0u);

  // A recompile republishes into the same entry, under the same id.
  ASSERT_TRUE(T.publish(K::general(), dummyCode()));
  EXPECT_EQ(T.dispatch(K::general()), E);
  EXPECT_EQ(T.size(), 1u);
  EXPECT_EQ(E->ObsId, Id);
  EXPECT_EQ(E->DeoptCount, 7u);
}

TEST(CodeTable, BoundExemptsGenericRoot) {
  CodeTable<CallContext> T(1);
  ASSERT_TRUE(T.publish(ctxOf({Tag::IntVec}, 1), dummyCode()));
  EXPECT_FALSE(T.publish(ctxOf({Tag::RealVec}, 1), dummyCode()))
      << "specialized bound reached";
  EXPECT_TRUE(T.publish(genericContext(1), dummyCode()))
      << "the generic root is exempt from the bound";
  EXPECT_EQ(T.size(), 2u);
}

//===----------------------------------------------------------------------===//
// End-to-end: the tier manager dispatches context-specialized versions

TEST(ContextDispatch, MonomorphicCallerHitsOneSpecializedVersion) {
  Vm V(dispatchCfg(true));
  V.eval(PolySum);
  V.eval("for (k in 1:10) r <- poly_sum(reals, 100L)");
  EXPECT_DOUBLE_EQ(V.eval("r").asRealUnchecked(), 5050.0);

  Function *Fn = functionNamed(V, "poly_sum");
  TierState &TS = V.stateFor(Fn);
  EXPECT_EQ(TS.Versions.size(), 1u) << "one context, one version";
  ASSERT_EQ(TS.Versions.liveCount(), 1u);
  const FnVersion &Ver = *TS.Versions.entries().front();
  EXPECT_FALSE(Ver.Ctx.isGeneric());
  EXPECT_EQ(Ver.Ctx.ArgTags[0], Tag::RealVec);
  EXPECT_EQ(Ver.Ctx.ArgTags[1], Tag::Int);
  EXPECT_GT(Ver.Hits, 0u);
  EXPECT_EQ(stats().CtxVersions, 1u);
  EXPECT_GT(stats().CtxDispatchHits, 0u);
  EXPECT_EQ(stats().Deopts, 0u);
}

TEST(ContextDispatch, PolymorphicCallerPopulatesBoundedTable) {
  Vm V(dispatchCfg(true));
  V.eval(PolySum);
  // Alternate element types: the classic version-splitting workload.
  V.eval("for (k in 1:10) { ri <- poly_sum(ints, 100L)\n"
         "rr <- poly_sum(reals, 100L) }");
  EXPECT_EQ(V.eval("ri").asIntUnchecked(), 5050);
  EXPECT_DOUBLE_EQ(V.eval("rr").asRealUnchecked(), 5050.0);

  Function *Fn = functionNamed(V, "poly_sum");
  TierState &TS = V.stateFor(Fn);
  EXPECT_EQ(TS.Versions.size(), 2u) << "one version per observed context";
  EXPECT_LE(TS.Versions.size(), static_cast<size_t>(MaxVersions));
  for (const auto &E : TS.Versions.entries()) {
    EXPECT_FALSE(E->Ctx.isGeneric());
    EXPECT_TRUE(E->live());
    EXPECT_EQ(E->DeoptCount, 0u);
  }
  EXPECT_EQ(stats().Deopts, 0u)
      << "each context runs its own version: no misspeculation";
  EXPECT_EQ(stats().CtxVersions, 2u);
}

TEST(ContextDispatch, ScalarCallReusesVectorVersion) {
  Vm V(dispatchCfg(true));
  V.eval(PolySum);
  V.eval("for (k in 1:6) r <- poly_sum(reals, 100L)");
  ASSERT_EQ(stats().CtxVersions, 1u);
  // A scalar first argument is compatible with the RealVec version
  // (scalar <= vector): no new version, no deopt.
  EXPECT_DOUBLE_EQ(V.eval("poly_sum(3.5, 1L)").asRealUnchecked(), 3.5);
  EXPECT_EQ(stats().CtxVersions, 1u);
  EXPECT_EQ(stats().Deopts, 0u);
}

TEST(ContextDispatch, TableOverflowFallsBackToGenericRoot) {
  // One more argument-type context than the table holds: (element type of
  // v) x (type of n), each warmed past the threshold in turn. The first
  // MaxVersions get specialized versions; the last is served by the
  // generic root.
  const char *Calls[] = {"poly_sum(ints, 100L)", "poly_sum(reals, 100L)",
                         "poly_sum(ints, 100)", "poly_sum(reals, 100)",
                         "poly_sum(lgls, 3L)"};
  static_assert(std::size(Calls) == MaxVersions + 1,
                "one context past the bound");
  Vm V(dispatchCfg(true));
  V.eval(PolySum);
  V.eval("lgls <- c(TRUE, FALSE, TRUE)");
  const char *Want[] = {"5050L", "5050", "5050L", "5050", "2L"};
  for (size_t K = 0; K < std::size(Calls); ++K)
    for (int Rep = 0; Rep < 5; ++Rep)
      EXPECT_EQ(V.eval(Calls[K]).show(), Want[K]) << Calls[K];

  Function *Fn = functionNamed(V, "poly_sum");
  TierState &TS = V.stateFor(Fn);
  // MaxVersions specialized versions plus the generic root serving the
  // overflow.
  EXPECT_EQ(TS.Versions.size(), MaxVersions + 1u);
  EXPECT_NE(TS.Versions.exact(genericContext(2)), nullptr);
  EXPECT_EQ(stats().CtxVersions, MaxVersions);
  EXPECT_GT(stats().CtxDispatchMisses, 0u)
      << "overflow calls are reported as dispatch misses";
}

TEST(ContextDispatch, DisabledReproducesSingleVersionBehavior) {
  Vm V(dispatchCfg(false));
  V.eval(PolySum);
  V.eval("for (k in 1:10) { ri <- poly_sum(ints, 100L)\n"
         "rr <- poly_sum(reals, 100L) }");
  EXPECT_EQ(V.eval("ri").asIntUnchecked(), 5050);
  EXPECT_DOUBLE_EQ(V.eval("rr").asRealUnchecked(), 5050.0);

  Function *Fn = functionNamed(V, "poly_sum");
  TierState &TS = V.stateFor(Fn);
  EXPECT_EQ(TS.Versions.size(), 1u) << "seed behavior: one version";
  EXPECT_TRUE(TS.Versions.entries().front()->Ctx.isGeneric());
  EXPECT_EQ(stats().CtxVersions, 0u);
  EXPECT_EQ(stats().CtxDispatchHits, 0u);
}

TEST(ContextDispatch, OrthogonalToTierStrategy) {
  // The ablation toggle composes with every strategy: the polymorphic
  // workload stays correct under Deoptless and ProfileDrivenReopt too.
  for (TierStrategy S :
       {TierStrategy::Deoptless, TierStrategy::ProfileDrivenReopt}) {
    Vm::Config C = dispatchCfg(true);
    C.Strategy = S;
    Vm V(C);
    V.eval(PolySum);
    V.eval("for (k in 1:30) { ri <- poly_sum(ints, 100L)\n"
           "rr <- poly_sum(reals, 100L) }");
    EXPECT_EQ(V.eval("ri").asIntUnchecked(), 5050);
    EXPECT_DOUBLE_EQ(V.eval("rr").asRealUnchecked(), 5050.0);
    EXPECT_EQ(stats().CtxVersions, 2u);
  }
}

//===----------------------------------------------------------------------===//
// The interpreter records the caller's context in call feedback

TEST(ContextDispatch, CallSiteRecordsContextFeedback) {
  BaselineSession S;
  S.eval(PolySum);
  S.eval("a <- poly_sum(reals, 100L)");
  // The driver's Call site recorded arity and per-argument tags.
  Function *Top = S.lastModule()->Top;
  const CallFeedback *CF = nullptr;
  for (const auto &C : Top->Feedback.Calls)
    if (C.Hits > 0 && C.Target)
      CF = &C;
  ASSERT_NE(CF, nullptr);
  EXPECT_EQ(CF->SeenArity, 2u);
  EXPECT_TRUE(CF->ArgMask[0] &
              (1u << static_cast<unsigned>(Tag::RealVec)));
  EXPECT_TRUE(CF->ArgMask[1] & (1u << static_cast<unsigned>(Tag::Int)));
  // Each profiled slot saw exactly one tag (power-of-two mask).
  EXPECT_EQ(CF->ArgMask[0] & (CF->ArgMask[0] - 1), 0);
  EXPECT_EQ(CF->ArgMask[1] & (CF->ArgMask[1] - 1), 0);
}

TEST(ContextDispatch, ZeroArityFunctionHasSingleGenericRoot) {
  // A zero-arity call's runtime context carries CtxNoMissingArgs on top
  // of the root's flags; it must still resolve to THE generic root, not
  // a second flags-variant entry with split deopt bookkeeping.
  Vm V(dispatchCfg(true));
  V.eval("z <- function() 41L + 1L");
  V.eval("for (k in 1:10) r <- z()");
  EXPECT_EQ(V.eval("r").asIntUnchecked(), 42);
  Function *Fn = functionNamed(V, "z");
  TierState &TS = V.stateFor(Fn);
  EXPECT_EQ(TS.Versions.size(), 1u);
  EXPECT_EQ(TS.Versions.exact(genericContext(0)),
            TS.Versions.entries().front())
      << "the entry is the canonical root";
}
