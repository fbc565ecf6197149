//===-- tests/licm_test.cpp - Loop optimization layer tests ----------------===//
//
// Covers the loop layer's contract:
//
//  * loop-invariant guards (callee identity, inlined-callee entry type
//    checks) move to the preheader and are re-anchored to the header-entry
//    frame state — a failing hoisted guard deopts *before* the loop with
//    the pre-loop values, including multi-frame materialization when the
//    loop itself lives inside an inlined callee;
//  * guards on loop-varying values and impure instructions stay put;
//  * redundant-guard elimination keeps the dominating guard only;
//  * LoopOpts off/on produce identical transcripts (the layer is a pure
//    optimization), including across OSR-in entries whose entry block is
//    a loop header;
//  * peeling makes Fig. 4's accumulator type-stable in the deoptless
//    continuations, keeps a zero-trip loop's int, and a guard failing in
//    the peeled iteration resumes at the right pc.
//
//===----------------------------------------------------------------------===//

#include "ir/cfg.h"
#include "lowcode/lowcode.h"
#include "native/native.h"
#include "opt/pipeline.h"
#include "osr/deoptless.h"
#include "suite/programs.h"
#include "support/stats.h"
#include "testutil.h"
#include "vm/vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

using namespace rjit;

namespace {

class LicmFixture : public ::testing::Test {
protected:
  BaselineSession S;

  /// Warms \p Source in the baseline; the caller indexes the module's
  /// functions (Fns[0] is the toplevel).
  Module *warm(const std::string &Source) {
    S.eval(Source);
    return S.lastModule();
  }

  /// The unique closure of \p M with \p NParams parameters (closure names
  /// are anonymous in these programs, so arity is the stable handle).
  static Function *byArity(Module *M, size_t NParams) {
    Function *Found = nullptr;
    for (size_t K = 1; K < M->Fns.size(); ++K)
      if (M->Fns[K]->Params.size() == NParams) {
        EXPECT_EQ(Found, nullptr) << "arity is ambiguous in this program";
        Found = M->Fns[K].get();
      }
    EXPECT_NE(Found, nullptr);
    return Found;
  }

  static int countOps(const IrCode &C, IrOp Op) {
    int N = 0;
    const_cast<IrCode &>(C).eachInstr([&](Instr *I) { N += I->Op == Op; });
    return N;
  }

  /// Splits the Assume instructions of \p C by whether they sit inside a
  /// natural loop.
  static void guardsByLoop(IrCode &C, std::vector<Instr *> &InLoop,
                           std::vector<Instr *> &Outside) {
    DomTree DT(C);
    std::vector<NaturalLoop> Loops = findLoops(C, DT);
    C.eachInstr([&](Instr *I) {
      if (I->Op != IrOp::AssumeIr)
        return;
      bool In = false;
      for (NaturalLoop &L : Loops)
        In = In || L.contains(I);
      (In ? InLoop : Outside).push_back(I);
    });
  }
};

/// Runs Setup then N x Driver under \p C; returns the final value's text.
std::string runUnder(const std::string &Setup, const std::string &Driver,
                     Vm::Config C, int N = 6) {
  Vm V(C);
  V.eval(Setup);
  Value R;
  for (int K = 0; K < N; ++K)
    R = V.eval(Driver);
  return R.show();
}

} // namespace

//===----------------------------------------------------------------------===//
// IR-level: what moves and what stays

TEST_F(LicmFixture, InvariantCalleeIdentityGuardHoistedToPreheader) {
  Module *M = warm(R"(
    inc <- function(a) a + 1L
    hot <- function(g, x, n) {
      s <- 0L
      for (i in 1:n) s <- s + g(x)
      s
    }
    hot(inc, 1L, 5L); hot(inc, 1L, 5L)
  )");
  Function *Hot = byArity(M, 3);
  ASSERT_TRUE(Hot);

  VmStats Before = stats();
  OptOptions Opts; // loop layer on by default
  auto C = optimizeToIr(Hot, CallConv::FullElided, EntryState(), Opts);
  ASSERT_TRUE(C);
  VmStats D = stats() - Before;
  EXPECT_GT(D.HoistedGuards, 0u) << print(*C);

  // The callee-identity guard must have left the loop.
  std::vector<Instr *> InLoop, Outside;
  guardsByLoop(*C, InLoop, Outside);
  bool IdentityOutside = false;
  for (Instr *As : Outside)
    IdentityOutside |= As->op(0)->Op == IrOp::IsFunIr;
  EXPECT_TRUE(IdentityOutside) << print(*C);
  for (Instr *As : InLoop)
    EXPECT_NE(As->op(0)->Op, IrOp::IsFunIr)
        << "per-iteration identity guard survived: " << print(*C);

  // Ablation: with the layer off the guard stays in the loop.
  OptOptions Off;
  Off.Loop = false;
  auto C2 = optimizeToIr(Hot, CallConv::FullElided, EntryState(), Off);
  ASSERT_TRUE(C2);
  InLoop.clear();
  Outside.clear();
  guardsByLoop(*C2, InLoop, Outside);
  bool IdentityInside = false;
  for (Instr *As : InLoop)
    IdentityInside |= As->op(0)->Op == IrOp::IsFunIr;
  EXPECT_TRUE(IdentityInside) << print(*C2);
}

TEST_F(LicmFixture, HoistedGuardIsReanchoredToHeaderEntryState) {
  Module *M = warm(R"(
    inc <- function(a) a + 1L
    hot <- function(g, x, n) {
      s <- 0L
      for (i in 1:n) s <- s + g(x)
      s
    }
    hot(inc, 1L, 5L); hot(inc, 1L, 5L)
  )");
  Function *Hot = M->Fns[2].get();

  OptOptions Opts;
  auto C = optimizeToIr(Hot, CallConv::FullElided, EntryState(), Opts);
  ASSERT_TRUE(C);
  DomTree DT(*C);
  std::vector<NaturalLoop> Loops = findLoops(*C, DT);
  ASSERT_FALSE(Loops.empty());

  // The hoisted guard's framestate: every captured value must be defined
  // outside the loop (it deopts before the loop runs), and its pc must be
  // the loop-header pc — the interpreter re-executes the loop test.
  bool Checked = false;
  C->eachInstr([&](Instr *I) {
    if (I->Op != IrOp::AssumeIr || I->op(0)->Op != IrOp::IsFunIr)
      return;
    Instr *Fs = I->op(1)->op(0);
    for (NaturalLoop &L : Loops) {
      if (L.contains(I))
        return; // not the hoisted one
      for (Instr *Op : Fs->Ops)
        EXPECT_FALSE(L.contains(Op))
            << "preheader framestate captures an in-loop value: "
            << print(*C);
    }
    EXPECT_GE(Fs->BcPc, 0);
    EXPECT_LT(Fs->BcPc, static_cast<int32_t>(Hot->BC.Instrs.size()));
    EXPECT_EQ(Hot->BC.Instrs[Fs->BcPc].Op, Opcode::ForStep)
        << "hoisted guard must resume at the loop header";
    Checked = true;
  });
  EXPECT_TRUE(Checked) << print(*C);
}

TEST_F(LicmFixture, LoopVaryingGuardsAreNotHoisted) {
  Module *M = warm(R"(
    fold <- function(v, n) {
      s <- 0
      for (i in 1:n) s <- s + v[[i]]
      s
    }
    x <- c(1.5, 2.5, 3.5)
    fold(x, 3L); fold(x, 3L)
  )");
  Function *Fold = M->Fns[1].get();

  VmStats Before = stats();
  OptOptions Opts;
  auto C = optimizeToIr(Fold, CallConv::FullElided, EntryState(), Opts);
  ASSERT_TRUE(C);
  VmStats D = stats() - Before;
  // The only dynamic checks here guard the per-element type — loop-varying
  // by definition; nothing may move.
  EXPECT_EQ(D.HoistedGuards, 0u) << print(*C);
}

TEST_F(LicmFixture, ImpureInstructionsAreNotHoisted) {
  S.eval("total <- 0L");
  Module *M = warm(R"(
    bump <- function(n, x) {
      for (i in 1:n) total <<- total + x
      0L
    }
    bump(3L, 2L); bump(3L, 2L)
  )");
  Function *Bump = M->Fns[1].get();

  OptOptions Opts;
  auto C = optimizeToIr(Bump, CallConv::FullElided, EntryState(), Opts);
  ASSERT_TRUE(C);
  DomTree DT(*C);
  std::vector<NaturalLoop> Loops = findLoops(*C, DT);
  ASSERT_FALSE(Loops.empty()) << print(*C);

  // The env store and the env read feeding it are loop effects (another
  // thread of control could observe/modify `total`): both stay inside.
  int Stores = 0, Loads = 0;
  C->eachInstr([&](Instr *I) {
    if (I->Op != IrOp::StVarSuperEnv && I->Op != IrOp::LdVarEnv)
      return;
    bool In = false;
    for (NaturalLoop &L : Loops)
      In = In || L.contains(I);
    EXPECT_TRUE(In) << irOpName(I->Op) << " escaped the loop: " << print(*C);
    (I->Op == IrOp::StVarSuperEnv ? Stores : Loads)++;
  });
  EXPECT_GT(Stores, 0) << print(*C);
  EXPECT_GT(Loads, 0) << print(*C);
}

TEST_F(LicmFixture, InvariantArithmeticHoistedFromInnerLoop) {
  Module *M = warm(R"(
    colsum <- function(m, nr, nc) {
      s <- 0
      for (j in 1:nc)
        for (i in 1:nr)
          s <- s + m[[(j - 1L) * nr + i]]
      s
    }
    d <- as.numeric(1:12)
    colsum(d, 4L, 3L); colsum(d, 4L, 3L)
  )");
  Function *Cs = M->Fns[1].get();

  VmStats Before = stats();
  OptOptions Opts;
  auto C = optimizeToIr(Cs, CallConv::FullElided, EntryState(), Opts);
  ASSERT_TRUE(C);
  VmStats D = stats() - Before;
  // (j - 1L) * nr is invariant in the inner loop (and `1:nr` plus its
  // length in the outer one).
  EXPECT_GT(D.HoistedInstrs, 0u) << print(*C);

  DomTree DT(*C);
  std::vector<NaturalLoop> Loops = findLoops(*C, DT);
  ASSERT_EQ(Loops.size(), 2u) << print(*C);
  const NaturalLoop &Inner = Loops[0]; // innermost-first
  // No multiplication stays in the innermost loop except the index add.
  int InnerMuls = 0;
  C->eachInstr([&](Instr *I) {
    if (I->Op == IrOp::BinTyped && I->Bop == BinOp::Mul &&
        Inner.contains(I))
      ++InnerMuls;
  });
  EXPECT_EQ(InnerMuls, 0) << print(*C);
}

TEST_F(LicmFixture, RedundantGuardEliminationKeepsDominatingGuard) {
  Module *M = warm(R"(
    inc <- function(a) a + 1L
    pair <- function(g, x) g(x) + g(x)
    pair(inc, 1L); pair(inc, 1L)
  )");
  Function *Pair = byArity(M, 2);
  ASSERT_TRUE(Pair);

  VmStats Before = stats();
  OptOptions Opts;
  auto C = optimizeToIr(Pair, CallConv::FullElided, EntryState(), Opts);
  ASSERT_TRUE(C);
  VmStats D = stats() - Before;
  EXPECT_GT(D.EliminatedGuards, 0u) << print(*C);

  // Exactly one identity guard survives — the dominating one.
  int IdentityGuards = 0;
  C->eachInstr([&](Instr *I) {
    if (I->Op == IrOp::AssumeIr && I->op(0)->Op == IrOp::IsFunIr)
      ++IdentityGuards;
  });
  EXPECT_EQ(IdentityGuards, 1) << print(*C);
}

//===----------------------------------------------------------------------===//
// End-to-end: hoisted-guard deopt semantics

namespace {

Vm::Config e2eConfig(TierStrategy S, bool Inlining, bool LoopOpts = true) {
  Vm::Config C;
  C.Strategy = S;
  C.CompileThreshold = 2;
  C.OsrThreshold = 100;
  C.Inlining = Inlining;
  C.LoopOpts = LoopOpts;
  return C;
}

} // namespace

TEST(LicmE2E, HoistedInlinedTypeGuardDeoptsBeforeTheLoop) {
  // `twice` is spliced into the loop; its entry type guard on `x` (the
  // profile says Int) is loop-invariant and hoists to the preheader. The
  // real-element call must then fail the guard *before* the loop and
  // OSR-out with the pre-loop state — s must materialize as 0L, not as a
  // half-accumulated value, which only the correct final result shows.
  const char *Setup = R"(
    twice <- function(a) a + a
    use <- function(l, k, n) {
      x <- l[[k]]
      s <- 0L
      for (i in 1:n) s <- s + twice(x)
      s
    }
    li <- list(5L, 6L)
    lr <- list(1.5, 2.5)
  )";
  std::string Base = runUnder(Setup, "use(li, 1L, 10L)",
                              e2eConfig(TierStrategy::BaselineOnly, false));
  std::string BaseR = runUnder(Setup, "use(lr, 1L, 10L)",
                               e2eConfig(TierStrategy::BaselineOnly, false));

  for (bool Inl : {false, true}) {
    Vm V(e2eConfig(TierStrategy::Normal, Inl));
    V.eval(Setup);
    VmStats Start = stats();
    Value R;
    for (int K = 0; K < 4; ++K)
      R = V.eval("use(li, 1L, 10L)"); // warm + compile on Int
    EXPECT_EQ(R.show(), Base);
    uint64_t Hoisted = (stats() - Start).HoistedGuards;
    if (Inl) {
      EXPECT_GT(Hoisted, 0u)
          << "inlined entry guard on invariant x must hoist";
    }
    // Phase change: the hoisted guard fails at the preheader.
    Value R2 = V.eval("use(lr, 1L, 10L)");
    EXPECT_EQ(R2.show(), BaseR) << "inl=" << Inl;
    VmStats D = stats() - Start;
    if (Inl && Hoisted > 0) {
      EXPECT_GT(D.Deopts + D.DeoptlessAttempts, 0u);
    }
  }
}

TEST(LicmE2E, HoistedGuardInsideInlinedLoopMaterializesCallerFrames) {
  // The loop lives inside `kern`, which is inlined into `wrap`: the
  // loop-header anchor carries the frame-state chain, so the hoisted
  // identity guard's deopt metadata keeps the synthesized wrap frame. A
  // failing hoisted guard must rebuild *both* frames (multi-frame
  // OSR-out) and produce the baseline result.
  const char *Setup = R"(
    inc <- function(a) a + 1L
    dec <- function(a) a - 1L
    kern <- function(g, x, n) {
      s <- 0L
      for (i in 1:n) s <- s + g(x)
      s
    }
    wrap <- function(g, x, n) kern(g, x, n) + 1L
  )";
  std::string BaseInc = runUnder(Setup, "wrap(inc, 1L, 6L)",
                                 e2eConfig(TierStrategy::BaselineOnly, false));
  std::string BaseDec = runUnder(Setup, "wrap(dec, 1L, 6L)",
                                 e2eConfig(TierStrategy::BaselineOnly, false));

  Vm V(e2eConfig(TierStrategy::Normal, /*Inlining=*/true));
  V.eval(Setup);
  VmStats Start = stats();
  Value R;
  for (int K = 0; K < 4; ++K)
    R = V.eval("wrap(inc, 1L, 6L)");
  EXPECT_EQ(R.show(), BaseInc);
  VmStats D = stats() - Start;
  ASSERT_GT(D.InlinedCalls, 0u) << "kern must inline into wrap";
  ASSERT_GT(D.HoistedGuards, 0u)
      << "identity guard in the inlined loop must hoist";

  Value R2 = V.eval("wrap(dec, 1L, 6L)");
  EXPECT_EQ(R2.show(), BaseDec);
  D = stats() - Start;
  EXPECT_GT(D.MultiFrameDeopts, 0u)
      << "hoisted-guard failure must rebuild the inlined frame chain";
  EXPECT_GE(D.InlineFramesMaterialized, 2u);
}

TEST(LicmE2E, OsrInEntryBlockIsALoopHeader) {
  // A single long-running call tiers up via OSR-in: the continuation's
  // entry block *is* the loop header, so preheader synthesis splits the
  // prologue edge and hoisted guards re-anchor at the entry pc. Results
  // must match the baseline with the layer on and off.
  const char *Setup = R"(
    inc <- function(a) a + 1L
    osr <- function(g, x, n) {
      s <- 0L
      for (i in 1:n) s <- s + g(x)
      s
    }
  )";
  std::string Base = runUnder(Setup, "osr(inc, 1L, 3000L)",
                              e2eConfig(TierStrategy::BaselineOnly, false), 1);
  for (bool Loop : {false, true}) {
    Vm V(e2eConfig(TierStrategy::Normal, /*Inlining=*/true, Loop));
    V.eval(Setup);
    VmStats Start = stats();
    Value R = V.eval("osr(inc, 1L, 3000L)");
    EXPECT_EQ(R.show(), Base) << "loopopts=" << Loop;
    VmStats D = stats() - Start;
    EXPECT_GT(D.OsrInEntries, 0u)
        << "the long call must enter via OSR-in (loopopts=" << Loop << ")";
  }
}

TEST(LicmE2E, ZeroTripLoopNeverExecutesHoistedFaultingOps) {
  // Pure-but-faulting instructions (integer %% / %/%, `:` allocation) are
  // invariant in these while-loops, but the loop can run zero iterations
  // — speculative hoisting would raise ("integer modulo by zero",
  // "sequence too long") where the original program silently skips the
  // body. Warm with running loops, then call zero-trip with the faulting
  // inputs: every strategy must keep returning the baseline value.
  const char *Setup = R"(
    modsum <- function(a, b, k) {
      s <- 0L
      while (k > 0L) { s <- s + (a %% b)
        k <- k - 1L }
      s
    }
    lensum <- function(lo, hi, k) {
      s <- 0L
      while (k > 0L) { s <- s + length(lo:hi)
        k <- k - 1L }
      s
    }
  )";
  for (TierStrategy St : {TierStrategy::Normal, TierStrategy::Deoptless}) {
    Vm V(e2eConfig(St, /*Inlining=*/true));
    V.eval(Setup);
    for (int K = 0; K < 4; ++K) {
      EXPECT_EQ(V.eval("modsum(7L, 3L, 2L)").show(), "2L");
      EXPECT_EQ(V.eval("lensum(1L, 5L, 2L)").show(), "10L");
    }
    // Zero-trip with inputs the body could not survive: must stay silent.
    EXPECT_EQ(V.eval("modsum(7L, 0L, 0L)").show(), "0L")
        << "hoisted %% executed on a zero-trip entry";
    EXPECT_EQ(V.eval("lensum(300000000L, 600000000L, 0L)").show(), "0L")
        << "hoisted : executed on a zero-trip entry";
  }
}

TEST(LicmE2E, LoopOptsOffParityAcrossStrategies) {
  // The layer is a pure optimization: every strategy must produce the
  // same transcript with it on and off, including under phase changes.
  const char *Setup = R"(
    inc <- function(a) a + 1L
    hot <- function(g, x, n) {
      s <- 0L
      for (i in 1:n) s <- s + g(x)
      s
    }
    fold <- function(v, n) {
      s <- 0
      for (i in 1:n) s <- s + v[[i]]
      s
    }
    vi <- 1:6
    vr <- as.numeric(1:6)
  )";
  const char *Driver = "hot(inc, 2L, 8L) + fold(vi, 6L)\n"
                       "fold(vr, 6L)\n"
                       "hot(inc, 1.5, 8L)";
  std::string Base = runUnder(Setup, Driver,
                              e2eConfig(TierStrategy::BaselineOnly, false));
  for (TierStrategy St : {TierStrategy::Normal, TierStrategy::Deoptless,
                          TierStrategy::ProfileDrivenReopt})
    for (bool Inl : {false, true})
      for (bool Loop : {false, true})
        EXPECT_EQ(Base, runUnder(Setup, Driver, e2eConfig(St, Inl, Loop)))
            << "strategy " << static_cast<int>(St) << " inl=" << Inl
            << " loop=" << Loop;
}

//===----------------------------------------------------------------------===//
// Peeling type-unstable loops (opt/peel)

namespace {

/// The LowCode instructions inside \p F's loops: every range a backward
/// jump closes, unless it holds a `ret` (lowering places exit blocks
/// after the loop and may jump back to a shared `ret`).
std::vector<LowInstr> loopInstrs(const LowFunction &F) {
  std::vector<LowInstr> In;
  for (size_t Pc = 0; Pc < F.Code.size(); ++Pc) {
    const LowInstr &J = F.Code[Pc];
    if (J.Op != LowOp::JumpLow || J.Imm < 0 ||
        static_cast<size_t>(J.Imm) > Pc)
      continue;
    auto First = F.Code.begin() + J.Imm, Last = F.Code.begin() + Pc + 1;
    if (std::none_of(First, Last, [](const LowInstr &I) {
          return I.Op == LowOp::RetLow;
        }))
      In.insert(In.end(), First, Last);
  }
  return In;
}

/// The backends a test sweeps: the interpreter, and native code where
/// the host has it.
std::vector<bool> backends() {
  std::vector<bool> B{false};
  if (nativeBackendSupported())
    B.push_back(true);
  return B;
}

} // namespace

TEST(Peel, DeoptlessSumContinuationsRunTypedLoops) {
  // Fig. 4: `total <- 0L` summed over int, double, complex and double
  // data. The double and complex continuations peel the first iteration,
  // so `total` is one kind in their loops: no generic `+`, no boxing.
  const char *Phases[] = {"1:300", "as.numeric(1:300)",
                          "as.complex(1:300)", "as.numeric(1:300)"};
  for (bool Native : backends()) {
    Vm::Config C = e2eConfig(TierStrategy::Deoptless, false);
    C.NativeTier = Native;
    Vm V(C);
    V.eval(suite::byName("sum")->Setup);
    VmStats Start = stats();
    for (const char *Data : Phases) {
      V.eval(std::string("data <- ") + Data);
      for (int K = 0; K < 4; ++K)
        EXPECT_EQ(V.eval("sum_data(data)").show(),
                  V.eval("sum(data)").show())
            << Data;
    }
    VmStats D = stats() - Start;
    EXPECT_EQ(D.Deopts, 0u);
    EXPECT_EQ(D.DeoptlessCompiles, 2u);
    EXPECT_EQ(D.PeeledLoops, 2u) << "native " << Native;

    Function *Fn = V.eval("sum_data").closObj()->Fn;
    const std::vector<CodeEntry<DeoptContext> *> &Conts =
        V.stateFor(Fn).Continuations.entries();
    ASSERT_EQ(Conts.size(), 2u);
    for (CodeEntry<DeoptContext> *Cont : Conts) {
      const LowFunction &F = Cont->code()->low();
      std::vector<LowInstr> Loop = loopInstrs(F);
      EXPECT_FALSE(Loop.empty()) << printLow(F);
      for (const LowInstr &I : Loop)
        EXPECT_TRUE(I.Op != LowOp::BinGenLow && I.Op != LowOp::Box &&
                    I.Op != LowOp::Unbox)
            << lowOpName(I.Op) << " in the loop of\n"
            << printLow(F);
    }
  }
  // Normal recompiles after its deopt from a polymorphic profile: nothing
  // qualifies.
  Vm V(e2eConfig(TierStrategy::Normal, false));
  V.eval(suite::byName("sum")->Setup);
  VmStats Start = stats();
  for (const char *Data : Phases) {
    V.eval(std::string("data <- ") + Data);
    for (int K = 0; K < 4; ++K)
      V.eval("sum_data(data)");
  }
  EXPECT_EQ((stats() - Start).PeeledLoops, 0u);
}

TEST(Peel, ZeroTripLoopKeepsTheEntryInt) {
  // Warmed on doubles, the loop is peeled; over an empty vector the loop
  // test in front of the peeled iteration exits at once, and the result
  // is the entry value 0L, not 0.
  const char *Setup = R"(
    acc <- function(v) {
      total <- 0L
      for (x in v) total <- total + x
      total
    }
  )";
  for (TierStrategy St : {TierStrategy::Normal, TierStrategy::Deoptless})
    for (bool Native : backends()) {
      Vm::Config C = e2eConfig(St, false);
      C.NativeTier = Native;
      Vm V(C);
      V.eval(Setup);
      VmStats Start = stats();
      for (int K = 0; K < 4; ++K)
        EXPECT_EQ(V.eval("acc(c(1.5, 2, 3))").show(), "6.5");
      EXPECT_GT((stats() - Start).PeeledLoops, 0u);
      EXPECT_EQ(V.eval("acc(numeric(0))").show(), "0L")
          << "strategy " << static_cast<int>(St) << " native " << Native;
      EXPECT_EQ(V.eval("acc(c(1.5, 2, 3))").show(), "6.5");
    }
}

TEST(Peel, GuardFailingInThePeeledIterationResumesThere) {
  // The element guard (the profile says double) sits in both copies of
  // the body. An int first element fails it in the peeled iteration, an
  // int second element in the loop proper; either way the frame state
  // must name the `+` pc with that iteration's `total`.
  const char *Setup = R"(
    lsum <- function(l) {
      total <- 0L
      for (i in 1:length(l)) total <- total + l[[i]]
      total
    }
    warm <- list(1.5, 2.5, 3.5)
  )";
  const char *Calls[] = {"lsum(list(1L, 2.5, 3.5))",
                         "lsum(list(1.5, 2L, 3.5))", "lsum(list(7L))"};
  std::vector<std::string> Want;
  {
    Vm Base(e2eConfig(TierStrategy::BaselineOnly, false));
    Base.eval(Setup);
    for (const char *Call : Calls)
      Want.push_back(Base.eval(Call).show());
  }
  for (TierStrategy St : {TierStrategy::Normal, TierStrategy::Deoptless})
    for (bool Native : backends())
      for (size_t K = 0; K < std::size(Calls); ++K) {
        Vm::Config C = e2eConfig(St, false);
        C.NativeTier = Native;
        Vm V(C);
        V.eval(Setup);
        VmStats Start = stats();
        for (int W = 0; W < 4; ++W)
          EXPECT_EQ(V.eval("lsum(warm)").show(), "7.5");
        VmStats Warm = stats() - Start;
        EXPECT_GT(Warm.PeeledLoops, 0u);
        EXPECT_EQ(Warm.AssumeFailures, 0u);
        EXPECT_EQ(V.eval(Calls[K]).show(), Want[K])
            << Calls[K] << " strategy " << static_cast<int>(St)
            << " native " << Native;
        EXPECT_GT((stats() - Start).AssumeFailures, 0u) << Calls[K];
      }
}
