//===-- tests/lowcode_test.cpp - Lowering & engine unit tests --------------===//

#include "lowcode/exec.h"
#include "lowcode/lower.h"
#include "lowcode/step.h"
#include "opt/pipeline.h"
#include "suite/harness.h"
#include "support/stats.h"
#include "testutil.h"

#include <cstring>
#include <functional>

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
    if (isBranch(I.Op) && I.Imm <= static_cast<int32_t>(Pc))
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
  // The fill-then-read pattern must stay O(n): each v[[i]] <- i steals
  // the vector out of its slot and stores in place. A store into a shared
  // vector copies it first, which would make the loop quadratic.
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

  Value R;
  EXPECT_EQ(cowCopiesOf(*F, Value::integer(16000), R), 0u)
      << "the fill loop copied the vector it fills";
  EXPECT_EQ(R.toInt(), 16000 * 16001 / 2);
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
  EXPECT_TRUE(stealsContainer(Store)) << printLow(*F);
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
  EXPECT_TRUE(stealsContainer(Store)) << printLow(*F);
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
  EXPECT_FALSE(stealsContainer(onlyStore(*F))) << printLow(*F);
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
  EXPECT_FALSE(stealsContainer(onlyStore(*F))) << printLow(*F);
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
      EXPECT_EQ(stealsContainer(onlyStore(*F)), !WithGuard)
          << printLow(*F);
      Value R;
      uint64_t Copies = cowCopiesOf(*F, Value::intVec({5, 8}), R);
      EXPECT_EQ(Copies, WithGuard ? 1u : 0u);
      EXPECT_TRUE(R.equals(Value::intVec({7, FromParam ? 8 : 0})))
          << R.show();
    }
}

//===----------------------------------------------------------------------===//
// The ops.def table: its def sets are the real ones, and the suite's
// LowCode is well formed under it.

namespace {

constexpr uint16_t NumTestSlots = 8;

/// Slot arrays filled with values no op under test produces.
struct SentinelFrame {
  std::vector<Value> S;
  std::vector<double> D;
  std::vector<int32_t> Iv;
  SentinelFrame() : S(NumTestSlots), D(NumTestSlots), Iv(NumTestSlots) {
    for (uint16_t K = 0; K < NumTestSlots; ++K) {
      S[K] = Value::str("sentinel" + std::to_string(K));
      D[K] = -1000.25 - K;
      Iv[K] = -1000 - K;
    }
  }
};

LowInstr instr(LowOp Op, uint16_t Dst, uint16_t A, uint16_t B, uint16_t C,
               int32_t Imm = 0) {
  LowInstr I{Op};
  I.Dst = Dst;
  I.A = A;
  I.B = B;
  I.C = C;
  I.Imm = Imm;
  return I;
}

const SlotClass Classes[] = {SlotClass::Boxed, SlotClass::RawReal,
                             SlotClass::RawInt};

bool hasRef(const std::vector<LiveRef> &Refs, LiveRef R) {
  for (LiveRef X : Refs)
    if (X.Slot == R.Slot && X.K == R.K)
      return true;
  return false;
}

/// Fills an op case's inputs into a frame, or runs its op on one.
using FrameFn = std::function<void(SentinelFrame &)>;
using OpCase = std::function<void(const LowInstr &I, const FrameFn &SetInputs,
                                  const FrameFn &Run)>;

/// Calls \p Case on every non-control-flow op, in each class or kind
/// variant the lowerer emits, with inputs under which it succeeds (null
/// when it needs none) and a function that runs it on a sentinel frame.
/// Fails when an op the stepper runs has no case.
void forEachOpCase(const OpCase &Case) {
  Vm V;
  V.eval(R"(
    x <- 11L
    v <- c(1L, 2L)
    g <- function(a, b) a + b
    mk <- function() function(y) y
  )");
  Env *G = V.global();
  LowFunction F;
  F.Origin = V.eval("mk").closObj()->Fn;
  F.Consts = {Value::real(2.5), Value::integer(42), Value::str("k")};

  std::vector<bool> Seen(NumLowOps, false);
  auto Check = [&](const std::string &What, const LowInstr &I,
                   const FrameFn &SetInputs) {
    SCOPED_TRACE(What);
    Seen[static_cast<uint8_t>(I.Op)] = true;
    Case(I, SetInputs, [&](SentinelFrame &Fr) {
      stepLowInstr(F, I, Fr.S.data(), Fr.D.data(), Fr.Iv.data(), G, G, G);
    });
  };

  const char *ClassNames[] = {"boxed", "real", "int"};
  auto Scalars = [](SentinelFrame &Fr) {
    Fr.S[2] = Value::integer(5);
    Fr.D[2] = 3.5;
    Fr.Iv[2] = 8;
  };
  for (int K = 0; K < 3; ++K) {
    uint16_t Cls = static_cast<uint16_t>(Classes[K]);
    std::string Name = ClassNames[K];
    int32_t Const = Classes[K] == SlotClass::Boxed     ? 2
                    : Classes[K] == SlotClass::RawReal ? 0
                                                       : 1;
    Check("ldc " + Name, instr(LowOp::LoadConst, 1, 0, Cls, 0, Const), {});
    Check("mov " + Name, instr(LowOp::Move, 1, 2, Cls, 0), Scalars);
    if (Classes[K] == SlotClass::Boxed) {
      Check("mov moving", instr(LowOp::Move, 1, 2, Cls, 1), Scalars);
      continue;
    }
    Check("box " + Name, instr(LowOp::Box, 1, 2, 0, Cls), Scalars);
    Check("unbox " + Name, instr(LowOp::Unbox, 1, 2, 0, Cls),
          [&](SentinelFrame &Fr) {
            Fr.S[2] = Classes[K] == SlotClass::RawReal ? Value::real(3.5)
                                                       : Value::integer(8);
          });
  }
  for (int Src = 0; Src < 3; ++Src)
    for (int Dst = 0; Dst < 3; ++Dst) {
      Tag Target = Classes[Dst] == SlotClass::RawInt ? Tag::Int : Tag::Real;
      Check(std::string("coerce ") + ClassNames[Src] + " -> " +
                ClassNames[Dst],
            instr(LowOp::Coerce, 1, 2, static_cast<uint16_t>(Classes[Dst]),
                  packCoerce(Target, Classes[Src])),
            Scalars);
    }

  auto Operands = [](SentinelFrame &Fr) {
    Fr.Iv[2] = 17;
    Fr.Iv[3] = 5;
    Fr.D[2] = 7.5;
    Fr.D[3] = 2.0;
    Fr.S[2] = Value::cplx(1, 2);
    Fr.S[3] = Value::cplx(3, 4);
  };
  for (BinOp Op : {BinOp::Add, BinOp::Mod, BinOp::IDiv, BinOp::Lt})
    Check(std::string("arith.t int ") + binOpName(Op),
          instr(LowOp::ArithTyped, 1, 2, 3, packArith(Op, 1)), Operands);
  for (BinOp Op : {BinOp::Add, BinOp::Div, BinOp::Pow, BinOp::Mod,
                   BinOp::IDiv, BinOp::Lt})
    Check(std::string("arith.t real ") + binOpName(Op),
          instr(LowOp::ArithTyped, 1, 2, 3, packArith(Op, 2)), Operands);
  Check("arith.t complex", instr(LowOp::ArithTyped, 1, 2, 3,
                                 packArith(BinOp::Add, 3)),
        Operands);

  auto Generic = [](SentinelFrame &Fr) {
    Fr.S[2] = Value::intVec({4, 5});
    Fr.S[3] = Value::integer(2);
  };
  Check("bin", instr(LowOp::BinGenLow, 1, 3, 3, uint16_t(BinOp::Add)),
        Generic);
  Check("neg", instr(LowOp::NegLow, 1, 3, 0, 0), Generic);
  Check("not", instr(LowOp::NotLow, 1, 3, 0, 0), Generic);
  Check("ascond", instr(LowOp::AsCondLow, 1, 3, 0, 0), Generic);
  Check("idx2", instr(LowOp::Extract2Low, 1, 2, 3, 0), Generic);
  Check("idx1", instr(LowOp::Extract1Low, 1, 2, 3, 0), Generic);
  Check("length", instr(LowOp::LengthLow, 1, 2, 0, 0), Generic);
  for (bool Steal : {false, true})
    Check(std::string("setelem2") + (Steal ? " stealing" : ""),
          instr(LowOp::SetElem2Low, 1, 2, 3, packElem(Tag::Null, Steal), 3),
          Generic);

  const Tag Kinds[] = {Tag::Real, Tag::Int, Tag::Cplx, Tag::Lgl};
  auto Vectors = [](Tag Kind) {
    return [Kind](SentinelFrame &Fr) {
      Fr.S[2] = Kind == Tag::Real  ? Value::realVec({1.5, 2.5})
                : Kind == Tag::Int ? Value::intVec({4, 5})
                : Kind == Tag::Cplx
                    ? Value::cplxVec({Complex{1, 2}, Complex{3, 4}})
                    : Value::lglVec({0, 1});
      Fr.Iv[3] = 2;
      Fr.D[4] = 9.5;
      Fr.Iv[4] = 9;
      Fr.S[4] = Kind == Tag::Cplx ? Value::cplx(5, 6) : Value::lgl(true);
    };
  };
  for (Tag Kind : Kinds) {
    std::string Name = tagName(Kind);
    Check("idx2.t " + Name,
          instr(LowOp::Extract2Typed, 1, 2, 3, packElem(Kind)),
          Vectors(Kind));
    if (Kind == Tag::Lgl)
      continue; // no typed logical store: opt/lowertyped.cpp makes none
    for (bool Steal : {false, true})
      Check("setelem2.t " + Name + (Steal ? " stealing" : ""),
            instr(LowOp::SetElem2Typed, 1, 2, 3, packElem(Kind, Steal), 4),
            Vectors(Kind));
  }

  auto Sym = [](const char *Name) {
    return static_cast<int32_t>(symbol(Name));
  };
  Check("ldenv", instr(LowOp::LdEnv, 1, 0, 0, 0, Sym("x")), {});
  Check("stenv", instr(LowOp::StEnv, 0, 2, 0, 0, Sym("y")), Scalars);
  Check("stenv<<", instr(LowOp::StEnvSuper, 0, 2, 0, 0, Sym("z")), Scalars);
  Check("mkclos", instr(LowOp::MkClosLow, 1, 0, 0, 0, 0), {});
  Value Callee = V.eval("g");
  Check("call", instr(LowOp::CallValLow, 1, 2, 5, 0, 2),
        [&](SentinelFrame &Fr) {
          Fr.S[2] = Callee;
          Fr.S[5] = Value::integer(2);
          Fr.S[6] = Value::integer(3);
        });
  Check("callbi",
        instr(LowOp::CallBiLow, 1, 0, 5, uint16_t(BuiltinId::Length), 1),
        [](SentinelFrame &Fr) { Fr.S[5] = Value::intVec({1, 2, 3}); });
  LowInstr SetIdx = instr(LowOp::SetIdx2EnvLow, 1, 2, 3, 0);
  SetIdx.Imm2 = Sym("v");
  Check("setidx2env", SetIdx, [](SentinelFrame &Fr) {
    Fr.S[2] = Value::integer(1);
    Fr.S[3] = Value::integer(7);
  });

  // Every op the stepper runs is covered above.
  for (size_t Op = 0; Op < NumLowOps; ++Op) {
    LowOp O = static_cast<LowOp>(Op);
    if (!isBranch(O) && O != LowOp::GuardCond && O != LowOp::EpochCheck &&
        O != LowOp::RetLow) {
      EXPECT_TRUE(Seen[Op]) << lowOpName(O) << " has no case";
    }
  }
}

} // namespace

TEST(LowOpTable, DeclaredDefsAreTheRealDefs) {
  // Every op runs once against sentinel-filled slots. Every slot it
  // changes must be a def ops.def declares, with that class, or a boxed
  // operand the op moves out of; every declared def must be written.
  // Regalloc's intConstSlots folds a raw int slot with one declared def,
  // so a missing def here would be a miscompile there.
  forEachOpCase(
      [](const LowInstr &I, const FrameFn &SetInputs, const FrameFn &Run) {
        SentinelFrame Fr;
        if (SetInputs)
          SetInputs(Fr);
        SentinelFrame Before = Fr;
        Run(Fr);

        std::vector<LiveRef> Defs, MovedOut;
        forEachDef(I, [&](LiveRef R) { Defs.push_back(R); });
        if (I.Op == LowOp::CallValLow || I.Op == LowOp::CallBiLow)
          for (int32_t K = 0; K < I.Imm; ++K)
            MovedOut.push_back(
                {static_cast<uint16_t>(I.B + K), SlotClass::Boxed});
        if ((I.Op == LowOp::Move && I.C) ||
            ((I.Op == LowOp::SetElem2Low || I.Op == LowOp::SetElem2Typed) &&
             stealsContainer(I)))
          MovedOut.push_back({I.A, SlotClass::Boxed});
        for (uint16_t K = 0; K < NumTestSlots; ++K) {
          const Value &Old = Before.S[K], &New = Fr.S[K];
          bool Changed[] = {Old.tag() != New.tag() || !Old.equals(New),
                            std::memcmp(&Before.D[K], &Fr.D[K], 8) != 0,
                            Before.Iv[K] != Fr.Iv[K]};
          for (int C = 0; C < 3; ++C) {
            LiveRef R{K, Classes[C]};
            char Letter = "sdi"[C]; // printLow's class letters
            if (Changed[C]) {
              EXPECT_TRUE(hasRef(Defs, R) || hasRef(MovedOut, R))
                  << "undeclared write to " << Letter << K;
            } else {
              EXPECT_FALSE(hasRef(Defs, R))
                  << "declared def " << Letter << K << " was not written";
            }
          }
        }
      });
}

TEST(LowOpTable, DeclaredUsesAreTheRealUses) {
  // The twin of the def check: every op runs twice on the same inputs,
  // the second time with every raw slot it does not declare as a use
  // holding a different sentinel, and its declared defs must come out the
  // same. The native tier stores only an op's declared uses (and the
  // caller-saved homes) to the slot arrays before a helper runs it, so an
  // undeclared read would see a stale array value there.
  forEachOpCase(
      [](const LowInstr &I, const FrameFn &SetInputs, const FrameFn &Run) {
        SentinelFrame Same, Other;
        if (SetInputs) {
          SetInputs(Same);
          SetInputs(Other);
        }
        std::vector<LiveRef> Uses;
        forEachUse(I, [&](LiveRef R) { Uses.push_back(R); });
        for (uint16_t K = 0; K < NumTestSlots; ++K) {
          if (!hasRef(Uses, {K, SlotClass::RawReal}))
            Other.D[K] = 5000.75 + K;
          if (!hasRef(Uses, {K, SlotClass::RawInt}))
            Other.Iv[K] = 5000 + K;
        }
        Run(Same);
        Run(Other);
        forEachDef(I, [&](LiveRef R) {
          if (R.K == SlotClass::RawReal) {
            EXPECT_EQ(Same.D[R.Slot], Other.D[R.Slot]) << "d" << R.Slot;
          } else if (R.K == SlotClass::RawInt) {
            EXPECT_EQ(Same.Iv[R.Slot], Other.Iv[R.Slot]) << "i" << R.Slot;
          } else {
            const Value &X = Same.S[R.Slot], &Y = Other.S[R.Slot];
            // Two runs make two closures: compare what they close over.
            bool Equal =
                X.tag() == Tag::Clos && Y.tag() == Tag::Clos
                    ? X.closObj()->Fn == Y.closObj()->Fn &&
                          X.closObj()->Enclosing == Y.closObj()->Enclosing
                    : X.tag() == Y.tag() && X.equals(Y);
            EXPECT_TRUE(Equal) << "s" << R.Slot << ": " << X.show()
                               << " vs " << Y.show();
          }
        });
      });
}

namespace {

/// Checks that every slot, branch target, guard and frame-state reference
/// in \p F is in range and that its code does not fall off its end.
void expectWellFormed(const LowFunction &F) {
  SCOPED_TRACE(printLow(F));
  auto InRange = [&](LiveRef R) {
    return R.Slot < (R.K == SlotClass::RawInt    ? F.NumSlotsI
                     : R.K == SlotClass::RawReal ? F.NumSlotsD
                                                 : F.NumSlots);
  };
  auto FrameInRange = [&](const std::vector<LiveRef> &Stack,
                          const std::vector<std::pair<Symbol, LiveRef>> &Env) {
    for (LiveRef R : Stack)
      EXPECT_TRUE(InRange(R)) << "frame-state stack slot " << R.Slot;
    for (const auto &[Sym, R] : Env)
      EXPECT_TRUE(InRange(R)) << "frame-state local " << symbolName(Sym);
  };

  const int32_t N = static_cast<int32_t>(F.Code.size());
  ASSERT_GT(N, 0);
  for (int32_t Pc = 0; Pc < N; ++Pc) {
    const LowInstr &I = F.Code[Pc];
    auto Operand = [&](LiveRef R) {
      EXPECT_TRUE(InRange(R)) << "pc " << Pc << ": slot " << R.Slot;
    };
    forEachUse(I, Operand);
    forEachDef(I, Operand);
    if (isBranch(I.Op)) {
      EXPECT_TRUE(I.Imm >= 0 && I.Imm < N) << "pc " << Pc << ": target";
    }
    if (I.Op == LowOp::GuardCond || I.Op == LowOp::EpochCheck) {
      EXPECT_TRUE(I.Imm >= 0 && static_cast<size_t>(I.Imm) < F.Deopts.size())
          << "pc " << Pc << ": deopt index";
    }
  }
  for (const DeoptMeta &M : F.Deopts) {
    FrameInRange(M.StackSlots, M.EnvSlots);
    for (const DeoptFrame &C : M.Callers)
      FrameInRange(C.StackSlots, C.EnvSlots);
    if (M.HasValueSlot) {
      EXPECT_LT(M.ValueSlot, F.NumSlots);
    }
  }
  for (size_t K = 0; K < F.ParamSlots.size(); ++K)
    EXPECT_TRUE(InRange({F.ParamSlots[K], F.ParamClasses[K]}));
  LowOp Last = F.Code.back().Op;
  EXPECT_TRUE(Last == LowOp::RetLow || Last == LowOp::JumpLow)
      << "the last instruction falls off the end";
}

} // namespace

TEST(LowOpTable, SuiteLowCodeIsWellFormed) {
  // The first half of a LowCode verifier, over every closure the main
  // suite defines, optimized from the feedback of three driver runs as
  // micro_gbench's BM_LowerSuite does. Only one Vm may be active on a
  // thread, so each program's closures are checked before the next Vm.
  size_t NumPrograms;
  const suite::Program *Suite = suite::mainSuite(NumPrograms);
  size_t Closures = 0;
  for (size_t P = 0; P < NumPrograms; ++P) {
    SCOPED_TRACE(Suite[P].Name);
    Vm V(suite::benchConfig(TierStrategy::Normal));
    V.eval(Suite[P].Setup);
    for (int K = 0; K < 3; ++K)
      V.eval(Suite[P].Driver);
    const OptOptions O = V.optView();
    for (const auto &Binding : V.global()->bindings()) {
      if (Binding.second.tag() != Tag::Clos)
        continue;
      Function *Fn = Binding.second.closObj()->Fn;
      std::unique_ptr<IrCode> Ir =
          optimizeToIr(Fn, CallConv::FullElided, EntryState(), O);
      if (!Ir)
        Ir = optimizeToIr(Fn, CallConv::FullEnv, EntryState(), O);
      if (!Ir)
        continue;
      expectWellFormed(*lowerToLow(*Ir));
      ++Closures;
    }
  }
  EXPECT_GT(Closures, 0u);
}
