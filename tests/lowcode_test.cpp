//===-- tests/lowcode_test.cpp - Lowering & engine unit tests --------------===//

#include "lowcode/exec.h"
#include "lowcode/lower.h"
#include "opt/pipeline.h"
#include "support/stats.h"
#include "support/timer.h"
#include "testutil.h"

#include <gtest/gtest.h>

using namespace rjit;

namespace {

class LowFixture : public ::testing::Test {
protected:
  BaselineSession S;

  /// Warms and compiles the first closure of \p Source (FullElided when
  /// possible) and returns the LowFunction.
  std::unique_ptr<LowFunction> compile(const std::string &Source,
                                       int FnIdx = 1) {
    S.eval(Source);
    Function *Fn = S.lastModule()->Fns[FnIdx].get();
    OptOptions Opts;
    auto Ir = optimizeToIr(Fn, CallConv::FullElided, EntryState(), Opts);
    if (!Ir)
      Ir = optimizeToIr(Fn, CallConv::FullEnv, EntryState(), Opts);
    EXPECT_TRUE(Ir);
    return Ir ? lowerToLow(*Ir) : nullptr;
  }

  static int countOps(const LowFunction &F, LowOp Op) {
    int N = 0;
    for (const LowInstr &I : F.Code)
      N += I.Op == Op;
    return N;
  }

  /// The function's only element store.
  static const LowInstr &onlyStore(const LowFunction &F) {
    const LowInstr *Store = nullptr;
    for (const LowInstr &I : F.Code)
      if (I.Op == LowOp::SetElem2Typed || I.Op == LowOp::SetElem2Low) {
        EXPECT_EQ(Store, nullptr) << "expected one element store";
        Store = &I;
      }
    EXPECT_NE(Store, nullptr) << printLow(F);
    static const LowInstr None{LowOp::RetLow};
    return Store ? *Store : None;
  }

  /// The boxed Moves reading slot \p A.
  static std::vector<LowInstr> boxedMovesFrom(const LowFunction &F,
                                              uint16_t A) {
    std::vector<LowInstr> Out;
    for (const LowInstr &I : F.Code)
      if (I.Op == LowOp::Move && I.A == A &&
          static_cast<SlotClass>(I.B) == SlotClass::Boxed)
        Out.push_back(I);
    return Out;
  }

  /// Runs \p F on the one argument \p Arg, whose only reference it
  /// takes, and returns the copy-on-write copies the run made.
  uint64_t cowCopiesOf(const LowFunction &F, Value Arg, Value &Result) {
    std::vector<Value> Args;
    Args.push_back(std::move(Arg));
    uint64_t Before = stats().CowCopies;
    Result = runLow(F, std::move(Args), nullptr, S.global());
    return stats().CowCopies - Before;
  }
};

} // namespace

TEST_F(LowFixture, UnboxedSlotClassesAssigned) {
  auto F = compile(R"(
    f <- function(v) {
      s <- 0
      for (i in 1:length(v)) s <- s + v[[i]]
      s
    }
    x <- c(1.5, 2.5); f(x); f(x); f(x)
  )");
  ASSERT_TRUE(F);
  EXPECT_GT(F->NumSlotsD, 0u) << "the accumulator must live in raw doubles";
  EXPECT_GT(F->NumSlotsI, 0u) << "loop counters must live in raw ints";
}

TEST_F(LowFixture, ParamClassesFollowTypes) {
  auto F = compile(R"(
    f <- function(v) v[[1]] + v[[2]]
    x <- c(1.5, 2.5); f(x); f(x); f(x)
  )");
  ASSERT_TRUE(F);
  ASSERT_EQ(F->ParamClasses.size(), 1u);
  EXPECT_EQ(F->ParamClasses[0], SlotClass::Boxed)
      << "vector parameters stay boxed";
}

TEST_F(LowFixture, GuardsCarryDeoptMetadata) {
  auto F = compile(R"(
    f <- function(v) v[[1]]
    x <- c(1L); f(x); f(x); f(x)
  )");
  ASSERT_TRUE(F);
  EXPECT_GT(F->GuardCount, 0u);
  ASSERT_FALSE(F->Deopts.empty());
  for (const DeoptMeta &M : F->Deopts) {
    EXPECT_GE(M.BcPc, 0) << "resume pc must be set";
    EXPECT_GE(M.ReasonPc, 0);
  }
}

TEST_F(LowFixture, GuardsAreEntryHoistedForParams) {
  auto F = compile(R"(
    f <- function(v) {
      s <- 0
      for (i in 1:length(v)) s <- s + v[[i]]
      s
    }
    x <- as.numeric(1:10); f(x); f(x); f(x)
  )");
  ASSERT_TRUE(F);
  // All guards should appear before the loop's first backedge target:
  // no guard after the first backward jump.
  int32_t FirstBackTarget = -1;
  for (size_t Pc = 0; Pc < F->Code.size(); ++Pc) {
    const LowInstr &I = F->Code[Pc];
    if ((I.Op == LowOp::JumpLow || I.Op == LowOp::CmpBranch ||
         I.Op == LowOp::BranchFalseLow || I.Op == LowOp::BranchTrueLow) &&
        I.Imm <= static_cast<int32_t>(Pc))
      FirstBackTarget = std::max(FirstBackTarget, I.Imm);
  }
  ASSERT_GE(FirstBackTarget, 0) << "expected a loop";
  for (size_t Pc = FirstBackTarget; Pc < F->Code.size(); ++Pc)
    EXPECT_NE(F->Code[Pc].Op, LowOp::GuardCond)
        << "guard inside the hot loop at pc " << Pc;
}

TEST_F(LowFixture, CompareBranchFusion) {
  auto F = compile(R"(
    f <- function(n) {
      s <- 0L
      for (i in 1:n) s <- s + i
      s
    }
    f(10L); f(10L); f(10L)
  )");
  ASSERT_TRUE(F);
  EXPECT_GT(countOps(*F, LowOp::CmpBranch), 0)
      << "loop exit compare must fuse into the branch";
}

TEST_F(LowFixture, RunLowExecutesDirectly) {
  auto F = compile(R"(
    f <- function(a, b) a * b + 1L
    f(2L, 3L); f(2L, 3L); f(2L, 3L)
  )");
  ASSERT_TRUE(F);
  std::vector<Value> Args;
  Args.push_back(Value::integer(6));
  Args.push_back(Value::integer(7));
  Value R = runLow(*F, std::move(Args), nullptr, S.global());
  EXPECT_EQ(R.asIntUnchecked(), 43);
}

TEST_F(LowFixture, AccumulatorStealKeepsContainersUnshared) {
  // The fill-then-read pattern must stay O(n): time ratio between n and
  // 4n should be roughly linear (far below the quadratic 16x).
  S.eval(R"(
    fill <- function(n) {
      v <- integer(n)
      for (i in 1:n) v[[i]] <- i
      s <- 0L
      for (i in 1:n) s <- s + v[[i]]
      s
    }
  )");
  Function *Fn = S.lastModule()->Fns[1].get();
  S.eval("fill(1000L)");
  S.eval("fill(1000L)");
  OptOptions Opts;
  auto Ir = optimizeToIr(Fn, CallConv::FullElided, EntryState(), Opts);
  ASSERT_TRUE(Ir);
  auto F = lowerToLow(*Ir);

  auto TimeN = [&](int32_t N) {
    std::vector<Value> Args;
    Args.push_back(Value::integer(N));
    uint64_t Start = nowNanos();
    Value R = runLow(*F, std::move(Args), nullptr, S.global());
    uint64_t Elapsed = nowNanos() - Start;
    EXPECT_EQ(R.toInt(), N * (N + 1) / 2);
    return Elapsed;
  };
  TimeN(4000); // warm caches
  double T1 = static_cast<double>(TimeN(4000));
  double T4 = static_cast<double>(TimeN(16000));
  EXPECT_LT(T4 / T1, 9.0) << "fill loop must not be quadratic";
}

TEST_F(LowFixture, PrintLowIsReadable) {
  auto F = compile(R"(
    f <- function(x) x + 1L
    f(1L); f(1L); f(1L)
  )");
  ASSERT_TRUE(F);
  std::string P = printLow(*F);
  EXPECT_NE(P.find("lowfn"), std::string::npos);
  EXPECT_NE(P.find("ret"), std::string::npos);
}

TEST_F(LowFixture, FrameStatesNameRawValuesWithoutBoxing) {
  // The element guard inside the loop has the raw int accumulator n and
  // the raw real accumulator s in its frame state. Its metadata must name
  // them in their raw slots, and the guard must not be preceded by a Box
  // of them: a passing guard costs only its test.
  auto F = compile(R"(
    f <- function(l) {
      n <- 0L
      s <- 0.5
      for (i in 1:length(l)) {
        n <- n + i
        s <- s + 0.25
        n <- n + l[[i]]
      }
      n + s
    }
    x <- list(1L, 2L, 3L); f(x); f(x); f(x)
  )");
  ASSERT_TRUE(F);
  int RawGuards = 0;
  for (size_t Pc = 0; Pc < F->Code.size(); ++Pc) {
    const LowInstr &I = F->Code[Pc];
    if (I.Op != LowOp::GuardCond)
      continue;
    const DeoptMeta &M = F->Deopts[I.Imm];
    bool Int = false, Real = false;
    auto See = [&](LiveRef R) {
      Int |= R.K == SlotClass::RawInt;
      Real |= R.K == SlotClass::RawReal;
      EXPECT_LT(R.Slot, R.K == SlotClass::RawInt    ? F->NumSlotsI
                        : R.K == SlotClass::RawReal ? F->NumSlotsD
                                                    : F->NumSlots);
    };
    for (LiveRef R : M.StackSlots)
      See(R);
    for (const auto &[Sym, R] : M.EnvSlots)
      See(R);
    if (!Int && !Real)
      continue;
    ++RawGuards;
    EXPECT_TRUE(Int && Real) << "n and s are both live at pc " << Pc << "\n"
                             << printLow(*F);
    ASSERT_GT(Pc, 0u);
    EXPECT_NE(F->Code[Pc - 1].Op, LowOp::Box)
        << "frame-state values are boxed only once the guard fails\n"
        << printLow(*F);
  }
  EXPECT_GT(RawGuards, 0) << printLow(*F);
  // printLow shows what each guard's deopt captures, class by class.
  std::string P = printLow(*F);
  EXPECT_NE(P.find(" fs=["), std::string::npos) << P;
  EXPECT_NE(P.find("n=i"), std::string::npos) << P;
  EXPECT_NE(P.find("s=d"), std::string::npos) << P;
}

TEST_F(LowFixture, GuardFailureWithoutHandlerRaises) {
  auto F = compile(R"(
    f <- function(v) v[[1]]
    x <- c(1L); f(x); f(x); f(x)
  )");
  ASSERT_TRUE(F);
  ASSERT_GT(F->GuardCount, 0u);
  // Passing a double vector violates the IntVec speculation; without an
  // installed deopt handler the engine must fail loudly, not silently.
  std::vector<Value> Args;
  Args.push_back(Value::realVec({1.5}));
  EXPECT_THROW(runLow(*F, std::move(Args), nullptr, S.global()), RError);
}

//===----------------------------------------------------------------------===//
// Last-use moves: an element store and a phi edge move steal the boxed
// value out of its slot exactly when nothing reads that slot afterwards.

TEST_F(LowFixture, StoreWhoseBackEdgeLeavesAnotherBlockMovesTheVector) {
  // The branch after the store puts the back edge in a different block
  // from the store: the loop-carried vector must still be moved into the
  // loop phi, or every iteration copies it.
  auto F = compile(R"(
    f <- function(n) {
      v <- integer(n)
      for (i in 1:n) {
        v[[i]] <- i
        if (i > 5L) n <- n + 0L
      }
      v
    }
    f(10L); f(10L); f(10L)
  )");
  ASSERT_TRUE(F);
  const LowInstr &Store = onlyStore(*F);
  EXPECT_TRUE(Store.C & 0x100) << printLow(*F);
  std::vector<LowInstr> Moves = boxedMovesFrom(*F, Store.Dst);
  ASSERT_FALSE(Moves.empty()) << printLow(*F);
  for (const LowInstr &M : Moves)
    EXPECT_EQ(M.C, 1) << printLow(*F);

  Value R;
  EXPECT_EQ(cowCopiesOf(*F, Value::integer(2000), R), 0u);
  EXPECT_EQ(R.length(), 2000);
  EXPECT_EQ(extract2(R, 2000).toInt(), 2000);
}

TEST_F(LowFixture, StoreUnderIfMovesThroughTheJoin) {
  // The loop carries counts through a join phi whose other input is the
  // unchanged vector: neither input is read after its edge.
  auto F = compile(R"(
    f <- function(keys) {
      counts <- integer(16L)
      for (i in 1:length(keys)) {
        k <- keys[[i]]
        if (k > 0L) counts[[k]] <- counts[[k]] + 1L
      }
      counts
    }
    x <- c(1L, 0L, 3L); f(x); f(x); f(x)
  )");
  ASSERT_TRUE(F);
  const LowInstr &Store = onlyStore(*F);
  EXPECT_TRUE(Store.C & 0x100) << printLow(*F);
  for (uint16_t Src : {Store.Dst, Store.A}) {
    std::vector<LowInstr> Moves = boxedMovesFrom(*F, Src);
    ASSERT_FALSE(Moves.empty()) << "slot " << Src << "\n" << printLow(*F);
    for (const LowInstr &M : Moves)
      EXPECT_EQ(M.C, 1) << printLow(*F);
  }

  std::vector<int32_t> Keys(3000);
  for (size_t K = 0; K < Keys.size(); ++K)
    Keys[K] = static_cast<int32_t>(K % 4);
  Value R;
  EXPECT_EQ(cowCopiesOf(*F, Value::intVec(std::move(Keys)), R), 0u);
  EXPECT_EQ(extract2(R, 1).toInt(), 750);
  EXPECT_EQ(extract2(R, 3).toInt(), 750);
}

TEST_F(LowFixture, StoreIntoAVectorReadLaterCopies) {
  // w and v are one value: the store must leave the old vector intact.
  auto F = compile(R"(
    f <- function(v) {
      w <- v
      v[[1]] <- 0L
      c(w, v)
    }
    x <- c(1L, 2L); f(x); f(x); f(x)
  )");
  ASSERT_TRUE(F);
  EXPECT_FALSE(onlyStore(*F).C & 0x100) << printLow(*F);
  Value R;
  EXPECT_EQ(cowCopiesOf(*F, Value::intVec({1, 2}), R), 1u);
  EXPECT_TRUE(R.equals(Value::intVec({1, 2, 0, 2}))) << R.show();
}

TEST_F(LowFixture, ConstantContainerInALoopIsNeverMoved) {
  // The constant is loaded once, before the loop: moving it out of its
  // slot would leave the second iteration an empty slot.
  auto F = compile(R"(
    f <- function(n) {
      s <- 0L
      for (i in 1:n) {
        w <- "a"
        w[[2]] <- "b"
        s <- s + length(w)
      }
      s
    }
    f(10L); f(10L); f(10L)
  )");
  ASSERT_TRUE(F);
  EXPECT_FALSE(onlyStore(*F).C & 0x100) << printLow(*F);
  Value R;
  cowCopiesOf(*F, Value::integer(5), R);
  EXPECT_EQ(R.toInt(), 10);
}

TEST_F(LowFixture, GuardAfterAStoreKeepsTheOldContainer) {
  // ret (setelem2 c 1 0) where c is the parameter or a fresh vector, with
  // an optional guard between store and ret whose framestate holds c: a
  // deopt there rebuilds the pre-store vector, so c is live past the
  // store and must not be moved. Without the guard the store is c's last
  // use and moves it.
  for (bool FromParam : {true, false})
    for (bool WithGuard : {false, true}) {
      SCOPED_TRACE(std::string(FromParam ? "param" : "call result") +
                   (WithGuard ? ", guarded" : ""));
      IrCode C;
      BB *B = C.newBlock();
      C.Entry = B;
      auto Add = [&](IrOp Op, RType T, std::vector<Instr *> Ops) {
        auto I = C.make(Op, T);
        I->Ops = std::move(Ops);
        return B->append(std::move(I));
      };
      auto Const = [&](int32_t V) {
        auto I = C.make(IrOp::Const, RType::of(Tag::Int));
        I->Cst = Value::integer(V);
        return B->append(std::move(I));
      };
      Instr *P = Add(IrOp::Param, RType::any(), {});
      C.Params.push_back(P);
      Instr *Vec = P;
      if (!FromParam) {
        Vec = Add(IrOp::CallBuiltinKnown, RType::of(Tag::IntVec), {Const(2)});
        Vec->Bid = BuiltinId::IntegerCtor;
      }
      Instr *Store =
          Add(IrOp::SetElem2Gen, RType::any(), {Vec, Const(1), Const(7)});
      if (WithGuard) {
        Instr *Fs = Add(IrOp::FrameStateIr, RType::none(), {Vec});
        Fs->BcPc = 0;
        Fs->StackCount = 1;
        Instr *Cp = Add(IrOp::CheckpointIr, RType::none(), {Fs});
        Instr *Is = Add(IrOp::IsTagIr, RType::of(Tag::Lgl), {Store});
        Is->TagArg = Tag::IntVec;
        Add(IrOp::AssumeIr, RType::none(), {Is, Cp});
      }
      Add(IrOp::Ret, RType::none(), {Store});

      auto F = lowerToLow(C);
      EXPECT_EQ(static_cast<bool>(onlyStore(*F).C & 0x100), !WithGuard)
          << printLow(*F);
      Value R;
      uint64_t Copies = cowCopiesOf(*F, Value::intVec({5, 8}), R);
      EXPECT_EQ(Copies, WithGuard ? 1u : 0u);
      EXPECT_TRUE(R.equals(Value::intVec({7, FromParam ? 8 : 0})))
          << R.show();
    }
}
