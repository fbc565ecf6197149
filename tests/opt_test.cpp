//===-- tests/opt_test.cpp - Optimizer pipeline tests ----------------------===//

#include "opt/cleanup.h"
#include "opt/pipeline.h"
#include "testutil.h"

#include <gtest/gtest.h>

using namespace rjit;

namespace {

/// Warms a function in the baseline so its feedback is populated, then
/// returns the Function of the first non-top closure.
class OptFixture : public ::testing::Test {
protected:
  BaselineSession S;

  Function *warm(const std::string &Source) {
    S.eval(Source);
    Module *M = S.lastModule();
    EXPECT_GE(M->Fns.size(), 2u) << "expected a closure in the program";
    return M->Fns.size() >= 2 ? M->Fns[1].get() : nullptr;
  }

  static int countOps(const IrCode &C, IrOp Op) {
    int N = 0;
    const_cast<IrCode &>(C).eachInstr([&](Instr *I) { N += I->Op == Op; });
    return N;
  }
};

const OptOptions DefaultOpts;

} // namespace

TEST_F(OptFixture, ElidabilityAnalysis) {
  Function *F = warm(R"(
    f <- function(x) { y <- x + 1; y }
    f(1L)
  )");
  EXPECT_TRUE(envIsElidable(*F));
}

TEST_F(OptFixture, ClosureCreationPreventsElision) {
  Function *F = warm(R"(
    f <- function(x) { g <- function() x; g() }
    f(1L)
  )");
  EXPECT_FALSE(envIsElidable(*F));
}

TEST_F(OptFixture, ReadFirstThenWritePreventsElision) {
  S.eval("g_counter <- 0L");
  Function *F = warm(R"(
    f <- function() { x <- g_counter + 1L; g_counter <- x; g_counter }
    f()
  )");
  EXPECT_FALSE(envIsElidable(*F));
}

TEST_F(OptFixture, SuperAssignDoesNotPreventElision) {
  S.eval("acc <- 0L");
  Function *F = warm(R"(
    f <- function(x) { acc <<- x; x }
    f(1L)
  )");
  EXPECT_TRUE(envIsElidable(*F));
}

TEST_F(OptFixture, TranslateProducesVerifiableIr) {
  Function *F = warm(R"(
    f <- function(n) {
      t <- 0L
      for (i in 1:n) t <- t + i
      t
    }
    f(10L); f(10L)
  )");
  auto C = optimizeToIr(F, CallConv::FullElided, EntryState(), DefaultOpts);
  ASSERT_TRUE(C);
  EXPECT_EQ(verify(*C), "");
}

TEST_F(OptFixture, SpeculationInsertsAssumes) {
  Function *F = warm(R"(
    f <- function(v) {
      s <- 0
      for (i in 1:length(v)) s <- s + v[[i]]
      s
    }
    x <- c(1.5, 2.5)
    f(x); f(x); f(x)
  )");
  auto C = optimizeToIr(F, CallConv::FullElided, EntryState(), DefaultOpts);
  ASSERT_TRUE(C);
  EXPECT_GT(countOps(*C, IrOp::AssumeIr), 0) << print(*C);
  EXPECT_GT(countOps(*C, IrOp::CheckpointIr), 0);
  EXPECT_GT(countOps(*C, IrOp::FrameStateIr), 0);
}

TEST_F(OptFixture, NoSpeculationWithoutFeedbackOption) {
  Function *F = warm(R"(
    f <- function(v) v[[1]] + v[[2]]
    x <- c(1.5, 2.5)
    f(x); f(x)
  )");
  OptOptions NoSpec;
  NoSpec.Speculate = false;
  auto C = optimizeToIr(F, CallConv::FullElided, EntryState(), NoSpec);
  ASSERT_TRUE(C);
  EXPECT_EQ(countOps(*C, IrOp::AssumeIr), 0);
}

TEST_F(OptFixture, TypedOpsAfterSpeculation) {
  Function *F = warm(R"(
    f <- function(v) {
      s <- 0
      for (i in 1:length(v)) s <- s + v[[i]]
      s
    }
    x <- c(1.5, 2.5, 3.5)
    f(x); f(x); f(x)
  )");
  auto C = optimizeToIr(F, CallConv::FullElided, EntryState(), DefaultOpts);
  ASSERT_TRUE(C);
  // The hot loop body must be fully typed: a raw-vector extract and a
  // typed (unboxed double) add.
  EXPECT_GT(countOps(*C, IrOp::Extract2Typed), 0) << print(*C);
  EXPECT_GT(countOps(*C, IrOp::BinTyped), 0);
}

TEST_F(OptFixture, MonomorphicBuiltinCallSpecialized) {
  Function *F = warm(R"(
    f <- function(v) length(v)
    f(c(1, 2)); f(c(1, 2))
  )");
  auto C = optimizeToIr(F, CallConv::FullElided, EntryState(), DefaultOpts);
  ASSERT_TRUE(C);
  EXPECT_GT(countOps(*C, IrOp::CallBuiltinKnown), 0) << print(*C);
  EXPECT_EQ(countOps(*C, IrOp::CallVal), 0);
  // The global builtin folded: no load, no guard (the watch's epoch
  // stands in for both).
  EXPECT_EQ(countOps(*C, IrOp::LdVarEnv), 0);
  EXPECT_TRUE(C->FoldsBuiltins);
  // A requester whose executor saw length's binding overwritten
  // (OptOptions::IntactBuiltins) gets the generic call.
  OptOptions Rebound;
  Rebound.IntactBuiltins = 0;
  auto G = optimizeToIr(F, CallConv::FullElided, EntryState(), Rebound);
  ASSERT_TRUE(G);
  EXPECT_EQ(countOps(*G, IrOp::CallBuiltinKnown), 0) << print(*G);
  EXPECT_EQ(countOps(*G, IrOp::CallVal), 1);
  EXPECT_FALSE(G->FoldsBuiltins);
}

TEST_F(OptFixture, MonomorphicClosureCallSpecialized) {
  warm(R"(
    callee <- function(x) x + 1L
    f <- function(a) callee(a)
    f(1L); f(2L)
  )");
  // f is Fns[2] (callee compiled first).
  Module *M = S.lastModule();
  Function *Caller = M->Fns[2].get();
  auto C =
      optimizeToIr(Caller, CallConv::FullElided, EntryState(), DefaultOpts);
  ASSERT_TRUE(C);
  EXPECT_GT(countOps(*C, IrOp::CallStatic), 0) << print(*C);
}

TEST_F(OptFixture, ConstantFoldingWorks) {
  Function *F = warm(R"(
    f <- function() 2L * 3L + 4L
    f()
  )");
  auto C = optimizeToIr(F, CallConv::FullElided, EntryState(), DefaultOpts);
  ASSERT_TRUE(C);
  EXPECT_EQ(countOps(*C, IrOp::BinGen) + countOps(*C, IrOp::BinTyped), 0)
      << print(*C);
  bool Found10 = false;
  C->eachInstr([&](Instr *I) {
    if (I->Op == IrOp::Const && I->Cst.tag() == Tag::Int &&
        I->Cst.asIntUnchecked() == 10)
      Found10 = true;
  });
  EXPECT_TRUE(Found10);
}

TEST_F(OptFixture, BranchPruningOnConstants) {
  Function *F = warm(R"(
    f <- function(x) if (TRUE) x else x * 999L
    f(1L)
  )");
  auto C = optimizeToIr(F, CallConv::FullElided, EntryState(), DefaultOpts);
  ASSERT_TRUE(C);
  EXPECT_EQ(countOps(*C, IrOp::BranchIr), 0) << print(*C);
}

TEST_F(OptFixture, MixedNumericPhiStaysUnpromoted) {
  // s starts as integer 0L and accumulates doubles. The phi must NOT be
  // promoted to Real with edge coercions: coercion changes the value's
  // observable kind (a deopt before the first update must materialize 0L,
  // not 0.0, and a zero-trip loop must yield 0L) — the cross-tier fuzzer
  // catches promoted phis as int/real transcript divergences. The mixed
  // phi keeps its imprecise joined type and stays boxed.
  Function *F = warm(R"(
    f <- function(v) {
      s <- 0L
      for (i in 1:length(v)) s <- s + v[[i]]
      s
    }
    x <- c(1.5, 2.5)
    f(x); f(x)
  )");
  auto C = optimizeToIr(F, CallConv::FullElided, EntryState(), DefaultOpts);
  ASSERT_TRUE(C);
  bool FoundMixedPhi = false;
  C->eachInstr([&](Instr *I) {
    if (I->Op == IrOp::Phi && I->Type.contains(Tag::Int) &&
        I->Type.contains(Tag::Real)) {
      FoundMixedPhi = true;
      EXPECT_FALSE(I->Type.precise()) << print(*C);
    }
  });
  EXPECT_TRUE(FoundMixedPhi) << print(*C);
}

TEST_F(OptFixture, DeoptlessConvRequiresElidableEnv) {
  Function *F = warm(R"(
    f <- function(x) { g <- function() x; g() }
    f(1L)
  )");
  EntryState E;
  E.Pc = 0;
  auto C = optimizeToIr(F, CallConv::Deoptless, E, DefaultOpts);
  EXPECT_FALSE(C) << "leaked environments must be rejected (paper §4.3)";
}

TEST_F(OptFixture, ContinuationEntryMidFunction) {
  Function *F = warm(R"(
    f <- function(n) {
      t <- 0L
      for (i in 1:n) t <- t + i
      t
    }
    f(50L); f(50L)
  )");
  // Find the loop-head pc: the ForStep instruction.
  int32_t ForPc = -1;
  for (size_t K = 0; K < F->BC.Instrs.size(); ++K)
    if (F->BC.Instrs[K].Op == Opcode::ForStep)
      ForPc = static_cast<int32_t>(K);
  ASSERT_GE(ForPc, 0);

  EntryState E;
  E.Pc = ForPc;
  E.StackTypes = {RType::of(Tag::IntVec), RType::of(Tag::Int)};
  E.EnvTypes = {{symbol("t"), RType::of(Tag::Int)},
                {symbol("i"), RType::of(Tag::Int)},
                {symbol("n"), RType::of(Tag::Int)}};
  auto C = optimizeToIr(F, CallConv::Deoptless, E, DefaultOpts);
  ASSERT_TRUE(C);
  EXPECT_EQ(verify(*C), "");
  EXPECT_EQ(C->NumStackParams, 2u);
  EXPECT_EQ(C->EnvParamSyms.size(), 3u);
  EXPECT_EQ(countOps(*C, IrOp::LdVarEnv), 0)
      << "locals must come from params, not the env: " << print(*C);
}

TEST_F(OptFixture, FrameStatesDescribeInterpreterState) {
  Function *F = warm(R"(
    f <- function(v) v[[1]]
    x <- c(1.5)
    f(x); f(x)
  )");
  auto C = optimizeToIr(F, CallConv::FullElided, EntryState(), DefaultOpts);
  ASSERT_TRUE(C);
  bool SawEnvEntry = false;
  C->eachInstr([&](Instr *I) {
    if (I->Op == IrOp::FrameStateIr && !I->EnvSyms.empty())
      SawEnvEntry = true;
  });
  EXPECT_TRUE(SawEnvEntry) << print(*C);
}

//===----------------------------------------------------------------------===//
// IR verifier: structural invariants the between-pass gate enforces

TEST(Verifier, RejectsDominanceViolation) {
  // entry branches to B1/B2; a value defined in B1 is used in B2. Neither
  // block dominates the other, so the use is invalid — the verifier must
  // say so (this is what VerifyBetweenPasses catches when a pass moves an
  // instruction somewhere its operands do not reach).
  IrCode C;
  BB *B1 = C.newBlock();
  BB *B2 = C.newBlock();
  BB *Entry = C.newBlock();
  C.Entry = Entry;

  auto Cond = C.make(IrOp::Const, RType::of(Tag::Lgl));
  Cond->Cst = Value::lgl(true);
  Instr *CondI = Entry->append(std::move(Cond));
  auto Br = C.make(IrOp::BranchIr, RType::none());
  Br->Ops.push_back(CondI);
  Entry->append(std::move(Br));
  Entry->setSuccs(B1, B2);

  // B1 defines a (non-constant) value and returns it.
  auto Len = C.make(IrOp::LengthIr, RType::of(Tag::Int));
  Len->Ops.push_back(CondI);
  Instr *LenI = B1->append(std::move(Len));
  auto Ret1 = C.make(IrOp::Ret, RType::none());
  Ret1->Ops.push_back(LenI);
  B1->append(std::move(Ret1));

  // B2 uses B1's value: a dominance violation.
  auto Ret2 = C.make(IrOp::Ret, RType::none());
  Ret2->Ops.push_back(LenI);
  B2->append(std::move(Ret2));

  std::string Err = verify(C);
  EXPECT_NE(Err.find("does not dominate"), std::string::npos) << Err;
}

TEST_F(OptFixture, VerifierRejectsFrameStatePcOutOfRange) {
  Function *F = warm(R"(
    f <- function(v) v[[1]] + 1
    x <- c(1.5)
    f(x); f(x)
  )");
  auto C = optimizeToIr(F, CallConv::FullElided, EntryState(), DefaultOpts);
  ASSERT_TRUE(C);
  ASSERT_EQ(verify(*C), "");
  // Corrupt a framestate's resume pc past the bytecode body: the
  // frame-state/pc consistency check must reject it.
  Instr *Fs = nullptr;
  C->eachInstr([&](Instr *I) {
    if (!Fs && I->Op == IrOp::FrameStateIr)
      Fs = I;
  });
  ASSERT_NE(Fs, nullptr);
  Fs->BcPc = static_cast<int32_t>(F->BC.Instrs.size()) + 100;
  std::string Err = verify(*C);
  EXPECT_NE(Err.find("out of range"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Feedback cleanup (paper §4.3 "Incomplete Profile Data")

TEST_F(OptFixture, CleanupInjectsActualType) {
  Function *F = warm(R"(
    f <- function(v) v[[1]]
    x <- c(1L, 2L)
    f(x); f(x)
  )");
  // Find the LdVar v slot.
  int32_t Slot = -1, Pc = -1;
  for (size_t K = 0; K < F->BC.Instrs.size(); ++K)
    if (F->BC.Instrs[K].Op == Opcode::LdVar) {
      Slot = F->BC.Instrs[K].B;
      Pc = static_cast<int32_t>(K);
    }
  ASSERT_GE(Slot, 0);
  ASSERT_TRUE(F->Feedback.Types[Slot].seen(Tag::IntVec));

  DeoptSnapshot Snap;
  Snap.Pc = Pc;
  Snap.Kind = DeoptReasonKind::Typecheck;
  Snap.FailedSlot = Slot;
  Snap.ActualTag = Tag::RealVec;
  FeedbackTable FB = cleanupFeedback(*F, Snap);
  EXPECT_TRUE(FB.Types[Slot].monomorphic());
  EXPECT_EQ(FB.Types[Slot].uniqueTag(), Tag::RealVec)
      << "the observed type must be injected";
  // Original profile untouched.
  EXPECT_TRUE(F->Feedback.Types[Slot].seen(Tag::IntVec));
}

TEST_F(OptFixture, CleanupRepairsContradictingVariableProfiles) {
  Function *F = warm(R"(
    f <- function(v) v[[1]] + v[[2]]
    x <- c(1L, 2L)
    f(x); f(x)
  )");
  DeoptSnapshot Snap;
  Snap.Kind = DeoptReasonKind::Typecheck;
  Snap.EnvTags = {{symbol("v"), Tag::RealVec}};
  FeedbackTable FB = cleanupFeedback(*F, Snap);
  // Every LdVar-of-v profile must now claim RealVec.
  for (const BcInstr &I : F->BC.Instrs) {
    if (I.Op != Opcode::LdVar || static_cast<Symbol>(I.A) != symbol("v"))
      continue;
    EXPECT_TRUE(FB.Types[I.B].seen(Tag::RealVec));
    EXPECT_FALSE(FB.Types[I.B].seen(Tag::IntVec));
  }
}

TEST_F(OptFixture, CleanupDisabledLeavesProfileVerbatim) {
  Function *F = warm(R"(
    f <- function(v) v[[1]]
    x <- c(1L)
    f(x); f(x)
  )");
  DeoptSnapshot Snap;
  Snap.EnvTags = {{symbol("v"), Tag::RealVec}};
  FeedbackTable FB = cleanupFeedback(*F, Snap, /*Enabled=*/false);
  for (const BcInstr &I : F->BC.Instrs)
    if (I.Op == Opcode::LdVar) {
      EXPECT_EQ(FB.Types[I.B].SeenMask, F->Feedback.Types[I.B].SeenMask);
    }
}
