//===-- tests/native_test.cpp - Execution-backend seam & template JIT ------===//
//
// Unit and end-to-end coverage for the pluggable-backend refactor:
//
//  * the seam itself — prepare() wrapping, low() identity, the interpreter
//    backend as the portable fallback;
//  * the x86-64 template JIT — hand-built LowCode run natively, end-to-end
//    parity with the interpreter backend across tier strategies, guard
//    side exits feeding the unchanged deopt machinery (true deopt,
//    deoptless dispatch, multi-frame OSR-out from inlined frames), and
//    the injected-invalidation slow path through native guards.
//
// Native cases skip (not fail) on hosts without the backend; the seam
// cases run everywhere.
//
//===----------------------------------------------------------------------===//

#include "compile/pool.h"
#include "dispatch/context.h"
#include "dispatch/table.h"
#include "native/native.h"
#include "native/regalloc.h"
#include "suite/harness.h"
#include "suite/programs.h"
#include "support/stats.h"
#include "vm/vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

using namespace rjit;

namespace {

/// Hand-built "return the integer constant 7" LowCode.
std::unique_ptr<LowFunction> const7() {
  auto F = std::make_unique<LowFunction>();
  F->NumSlots = 1;
  F->Consts.push_back(Value::integer(7));
  LowInstr Ld;
  Ld.Op = LowOp::LoadConst;
  Ld.Dst = 0;
  Ld.B = static_cast<uint16_t>(SlotClass::Boxed);
  Ld.Imm = 0;
  F->Code.push_back(Ld);
  LowInstr Ret;
  Ret.Op = LowOp::RetLow;
  Ret.A = 0;
  F->Code.push_back(Ret);
  return F;
}

Vm::Config cfg(TierStrategy S, bool Native) {
  Vm::Config C;
  C.Strategy = S;
  C.CompileThreshold = 2;
  C.OsrThreshold = 100;
  C.NativeTier = Native;
  return C;
}

/// Runs Setup once and Driver \p Reps times under \p C; returns the last
/// value rendered and, when \p Stats is set, the Vm's counters (read
/// before the Vm, and its counters, go away).
std::string runUnder(Vm::Config C, const std::string &Setup,
                     const std::string &Driver, int Reps = 8,
                     VmStats *Stats = nullptr) {
  Vm V(C);
  V.eval(Setup);
  Value R;
  for (int K = 0; K < Reps; ++K)
    R = V.eval(Driver);
  if (Stats)
    *Stats = stats();
  return R.show();
}

} // namespace

//===----------------------------------------------------------------------===//
// The seam

TEST(BackendSeam, InterpBackendWrapsAndRuns) {
  std::unique_ptr<LowFunction> Low = const7();
  const LowFunction *Raw = Low.get();
  std::unique_ptr<ExecutableCode> X =
      interpBackend().prepare(std::move(Low));
  ASSERT_NE(X, nullptr);
  EXPECT_STREQ(X->backendName(), "interp");
  EXPECT_EQ(X->lowPtr(), Raw) << "low() must be the identity the deopt "
                                 "runtime keys on";
  Value R = X->run({}, nullptr, nullptr);
  EXPECT_EQ(R.asIntUnchecked(), 7);
}

TEST(BackendSeam, NullBackendResolvesToInterp) {
  EXPECT_EQ(&backendOr(nullptr), &interpBackend());
}

TEST(BackendSeam, UnsupportedHostsReportNoNativeBackend) {
  // On supported hosts makeNativeBackend() must produce a backend; on
  // unsupported ones it must return null (and the Vm falls back).
  std::unique_ptr<ExecBackend> B = makeNativeBackend();
  EXPECT_EQ(B != nullptr, nativeBackendSupported());
}

//===----------------------------------------------------------------------===//
// The template JIT

TEST(NativeJit, RunsHandBuiltCode) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  std::unique_ptr<ExecBackend> B = makeNativeBackend();
  ASSERT_NE(B, nullptr);
  std::unique_ptr<ExecutableCode> X = B->prepare(const7());
  ASSERT_NE(X, nullptr);
  EXPECT_STREQ(X->backendName(), "native-x64");
  EXPECT_EQ(X->run({}, nullptr, nullptr).asIntUnchecked(), 7);
}

TEST(NativeJit, TypedLoopMatchesInterpreter) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  const char *Setup = R"(
    f <- function(n) {
      s <- 0
      for (i in 1:n) s <- s + i * 0.5
      s
    }
  )";
  std::string Interp =
      runUnder(cfg(TierStrategy::Normal, false), Setup, "f(5000L)");
  VmStats S;
  std::string Native =
      runUnder(cfg(TierStrategy::Normal, true), Setup, "f(5000L)", 8, &S);
  EXPECT_EQ(Interp, Native);
  EXPECT_GT(S.NativeCompiles, 0u);
  EXPECT_GT(S.NativeEnters, 0u) << "the JIT must actually run";
}

TEST(NativeJit, RealCompareBranchesMatchInterpreter) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // Drives the fused double compare-branch templates (ucomisd with
  // swapped-operand encodings and the parity fixups of ==/!=), which
  // the int-typed grids never reach — including NaN operands, where
  // C++'s "unordered compares are false" must survive the jcc mapping.
  const char *Ops[] = {"<", "<=", ">", ">=", "==", "!="};
  for (const char *Op : Ops) {
    std::string Setup =
        std::string("g <- function(a, b) {\n  n <- 0L\n"
                    "  for (i in 1:10) if (a ") +
        Op + " b) n <- n + 1L else n <- n - 1L\n  n\n}\n";
    for (const char *Args :
         {"2.5, 2.5", "1.5, 2.5", "2.5, 1.5", "0 / 0, 1.0",
          "1.0, 0 / 0", "0 / 0, 0 / 0"}) {
      std::string Driver = std::string("g(") + Args + ")";
      std::string Interp =
          runUnder(cfg(TierStrategy::Normal, false), Setup, Driver);
      std::string Native =
          runUnder(cfg(TierStrategy::Normal, true), Setup, Driver);
      EXPECT_EQ(Interp, Native) << "op " << Op << " args " << Args;
    }
  }
}

TEST(NativeJit, GuardSideExitDrivesTrueDeopt) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  const char *Setup = R"(
    sum_data <- function(data) {
      total <- 0L
      for (i in 1:length(data)) total <- total + data[[i]]
      total
    }
  )";
  Vm V(cfg(TierStrategy::Normal, true));
  V.eval(Setup);
  for (int K = 0; K < 5; ++K)
    V.eval("sum_data(1:40)");
  ASSERT_GT(stats().NativeEnters, 0u);
  // Phase change: a native guard must side-exit into the unchanged OSR
  // machinery and produce the interpreter's exact result.
  EXPECT_EQ(V.eval("sum_data(as.numeric(1:40)) + 0.5").show(), "820.5");
  EXPECT_GT(stats().Deopts, 0u) << "the side exit must reach OSR-out";
}

TEST(NativeJit, GuardSideExitDrivesDeoptlessDispatch) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  const char *Setup = R"(
    sum_data <- function(data) {
      total <- 0L
      for (i in 1:length(data)) total <- total + data[[i]]
      total
    }
  )";
  Vm V(cfg(TierStrategy::Deoptless, true));
  V.eval(Setup);
  for (int K = 0; K < 5; ++K)
    V.eval("sum_data(1:40)");
  std::string R1 = V.eval("sum_data(as.numeric(1:40))").show();
  std::string R2 = V.eval("sum_data(as.numeric(1:40))").show();
  EXPECT_EQ(R1, "820");
  EXPECT_EQ(R2, "820");
  EXPECT_GT(stats().DeoptlessCompiles + stats().DeoptlessHits, 0u)
      << "native guard failures must dispatch through deoptless";
  EXPECT_EQ(stats().Deopts, 0u)
      << "deoptless must have absorbed the phase change";
}

TEST(NativeJit, MultiFrameOsrOutFromInlinedFrames) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // The kD shape of the fuzzer: a list element (type invisible to the
  // caller) flows into an inlined callee; the callee's guard fails in
  // native code and OSR-out must rebuild the whole frame chain.
  const char *Setup = R"(
    kA <- function(a, b) {
      acc <- a
      for (i in 1:3) acc <- acc + (b - 1L)
      acc
    }
    kD <- function(l, i) kA(l[[i]], 2L)
    li <- list(3L, 2L, 3L, 8L)
    lr <- list(8.5, 9.5, 2.5, 7.5)
  )";
  Vm::Config C = cfg(TierStrategy::Normal, true);
  C.Inlining = true;
  Vm V(C);
  V.eval(Setup);
  for (int K = 0; K < 6; ++K)
    V.eval("kD(li, 1L)");
  ASSERT_GT(stats().InlinedCalls, 0u) << "kA must be inlined into kD";
  ASSERT_GT(stats().NativeEnters, 0u);
  EXPECT_EQ(V.eval("kD(lr, 2L)").show(), "12.5");
  EXPECT_GT(stats().MultiFrameDeopts, 0u)
      << "the native side exit must materialize the inlined frames";
}

TEST(NativeJit, InjectedInvalidationKeepsResults) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  const char *Setup = R"(
    work <- function(n) {
      v <- integer(n)
      for (i in 1:n) v[[i]] <- (i * 7L) %% 13L
      s <- 0L
      for (i in 1:n) if (v[[i]] > 6L) s <- s + v[[i]]
      s
    }
  )";
  std::string Base = runUnder(cfg(TierStrategy::BaselineOnly, false),
                              Setup, "work(400L)", 20);
  for (TierStrategy S :
       {TierStrategy::Normal, TierStrategy::Deoptless}) {
    Vm::Config C = cfg(S, true);
    // Low rate, many repetitions: loop-invariant guards are hoisted, so
    // steady state executes only a handful of checks per call and the
    // countdown needs density to provably fire.
    C.InvalidationRate = 20;
    C.InvalidationSeed = 99;
    VmStats Run;
    EXPECT_EQ(runUnder(C, Setup, "work(400L)", 20, &Run), Base)
        << "strategy " << static_cast<int>(S);
    EXPECT_GT(Run.InjectedFailures, 0u)
        << "the countdown slow path must have fired in native guards";
  }
}

//===----------------------------------------------------------------------===//
// Register allocation

TEST(NativeRegalloc, RegisterAllocationSpillsDeterministically) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // Hand-built LowCode with two more live raw-int slots than the GPR pool
  // holds: the allocator must home the pool's worth, spill the rest, and
  // the generated code must still sum them all correctly — homed and
  // spilled slots mixing in one arithmetic chain.
  constexpr int NumInts = static_cast<int>(NatGprPoolSize) + 2;
  auto F = std::make_unique<LowFunction>();
  F->NumSlots = 1;
  F->NumSlotsI = NumInts;
  for (int K = 0; K < NumInts; ++K) {
    F->Consts.push_back(Value::integer(K + 1));
    LowInstr Ld;
    Ld.Op = LowOp::LoadConst;
    Ld.Dst = static_cast<uint16_t>(K);
    Ld.B = static_cast<uint16_t>(SlotClass::RawInt);
    Ld.Imm = K;
    F->Code.push_back(Ld);
  }
  // A second definition per slot (a self-move) keeps the slots out of
  // the constant-folding analysis — the point here is live registers
  // competing for the pool, not immediates.
  for (int K = 0; K < NumInts; ++K) {
    LowInstr Mv;
    Mv.Op = LowOp::Move;
    Mv.Dst = static_cast<uint16_t>(K);
    Mv.A = static_cast<uint16_t>(K);
    Mv.B = static_cast<uint16_t>(SlotClass::RawInt);
    F->Code.push_back(Mv);
  }
  for (int K = 1; K < NumInts; ++K) {
    LowInstr Add;
    Add.Op = LowOp::ArithTyped;
    Add.Dst = 0;
    Add.A = 0;
    Add.B = static_cast<uint16_t>(K);
    Add.C = packArith(BinOp::Add, 1);
    F->Code.push_back(Add);
  }
  LowInstr Box;
  Box.Op = LowOp::Box;
  Box.Dst = 0;
  Box.A = 0;
  Box.C = static_cast<uint16_t>(SlotClass::RawInt);
  F->Code.push_back(Box);
  LowInstr Ret;
  Ret.Op = LowOp::RetLow;
  Ret.A = 0;
  F->Code.push_back(Ret);

  std::unique_ptr<ExecBackend> B = makeNativeBackend();
  ASSERT_NE(B, nullptr);
  uint64_t SpillsBefore = stats().NativeRegSpills;
  std::unique_ptr<ExecutableCode> X = B->prepare(std::move(F));
  ASSERT_NE(X, nullptr);
  EXPECT_GT(stats().NativeRegSpills, SpillsBefore)
      << NumInts << " live int slots must overflow the " << NatGprPoolSize
      << "-register GPR pool";
  EXPECT_EQ(X->run({}, nullptr, nullptr).asIntUnchecked(),
            NumInts * (NumInts + 1) / 2);
}

TEST(NativeRegalloc, TypedReductionMatchesInterpreter) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // A typed reduction whose inner loop chains an extract into arithmetic
  // and moves arithmetic results between raw slots, all in register
  // homes: parity against the interpreter backend.
  const char *Setup = R"(
    dot <- function(v, n) {
      s <- 0
      for (i in 1:n) s <- s + v[[i]] * 1.5
      s
    }
  )";
  std::string Interp = runUnder(cfg(TierStrategy::Normal, false),
                                Setup + std::string("v <- as.numeric(1:64)"),
                                "dot(v, 64L)");
  VmStats S;
  std::string Native = runUnder(cfg(TierStrategy::Normal, true),
                                Setup + std::string("v <- as.numeric(1:64)"),
                                "dot(v, 64L)", 8, &S);
  EXPECT_EQ(Interp, Native);
  EXPECT_GT(S.NativeCompiles, 0u);
}

TEST(NativeRegalloc, RawFrameStateValuesLeaveRegisterHomes) {
  // The element guard of `s + x` fails mid-loop while the raw int
  // accumulator n and the raw real accumulator s are in its frame state,
  // both updated since the list extract's helper call last flushed the
  // register homes. Deopt and deoptless box them from the slot arrays, so
  // the native side exit must flush every home first (removing that
  // flush fails this case on the native tier). The injected failures take
  // the countdown stub's exit instead, which flushes the same way.
  const char *Setup = R"(
    mix <- function(l) {
      n <- 0L
      s <- 0.5
      for (i in 1:length(l)) {
        x <- l[[i]]
        n <- n + i
        s <- s * 0.5
        s <- s + x
      }
      n + s
    }
    ints <- list()
    for (k in 1:60) ints[[k]] <- k
    halves <- ints
    for (k in 30:60) halves[[k]] <- k + 0.5
  )";
  const std::string BaseInts =
      runUnder(cfg(TierStrategy::BaselineOnly, false), Setup, "mix(ints)", 1);
  const std::string BaseHalves = runUnder(
      cfg(TierStrategy::BaselineOnly, false), Setup, "mix(halves)", 1);
  ASSERT_NE(BaseInts, BaseHalves);

  std::vector<bool> Backends = {false};
  if (nativeBackendSupported())
    Backends.push_back(true);
  for (TierStrategy S : {TierStrategy::Normal, TierStrategy::Deoptless}) {
    for (bool Native : Backends) {
      SCOPED_TRACE(std::string(Native ? "native" : "interp") +
                   (S == TierStrategy::Normal ? ", Normal" : ", Deoptless"));
      Vm::Config C = cfg(S, Native);
      {
        Vm V(C);
        V.eval(Setup);
        for (int K = 0; K < 6; ++K)
          ASSERT_EQ(V.eval("mix(ints)").show(), BaseInts);
        if (Native) {
          ASSERT_GT(stats().NativeEnters, 0u);
        }
        EXPECT_EQ(V.eval("mix(halves)").show(), BaseHalves);
        EXPECT_EQ(V.eval("mix(halves)").show(), BaseHalves);
        if (S == TierStrategy::Deoptless) {
          EXPECT_GT(stats().DeoptlessHits + stats().DeoptlessCompiles, 0u);
          EXPECT_EQ(stats().Deopts, 0u);
        } else {
          EXPECT_GT(stats().Deopts, 0u);
        }
      }
      C.InvalidationRate = 7;
      C.InvalidationSeed = 5;
      VmStats Run;
      EXPECT_EQ(runUnder(C, Setup, "mix(ints)", 12, &Run), BaseInts);
      EXPECT_GT(Run.InjectedFailures, 0u);
    }
  }
}

TEST(NativeRegalloc, FigNativeKernelKeepsItsAllocation) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // fig_native's kernel warmed under fig_native's native arm: the
  // allocator's homes, vector pins and spills for colsum's version are
  // pinned, and native_reg_spills must equal the allocator's spills over
  // every native compile, so a stitcher that stopped allocating fails.
  Vm::Config C = suite::benchConfig(TierStrategy::Normal);
  C.Inlining = true;
  C.LoopOpts = true;
  C.NativeTier = true;
  Vm V(C);
  V.eval(std::string(suite::NativeColsumSetup) +
         "d <- as.numeric(1:600)\nwv <- as.numeric(1:60)");
  for (int K = 0; K < 6; ++K)
    ASSERT_EQ(V.eval("colsum(d, wv, 60L, 10L, get)").toReal(), 5841100.0);
  ASSERT_GT(stats().NativeEnters, 0u);

  uint64_t Spills = 0;
  for (const char *Name : {"get", "colsum"})
    for (const FnVersion *Ver :
         V.stateFor(V.eval(Name).closObj()->Fn).Versions.entries())
      if (Ver->code())
        Spills += allocateRegisters(Ver->code()->low(), /*AllowPins=*/true)
                      .Spills;
  EXPECT_EQ(stats().NativeRegSpills, Spills);

  FnVersion *Ver = V.stateFor(V.eval("colsum").closObj()->Fn)
                       .Versions.mostGenericLive();
  ASSERT_TRUE(Ver && Ver->code());
  const LowFunction &L = Ver->code()->low();
  RegAllocation RA = allocateRegisters(L, /*AllowPins=*/true);
  auto Homed = [](const std::vector<int16_t> &Homes) {
    return std::count_if(Homes.begin(), Homes.end(),
                         [](int16_t H) { return H >= 0; });
  };
  EXPECT_EQ(L.Code.size(), 56u) << printLow(L);
  EXPECT_EQ(Homed(RA.IntHome), 5);
  EXPECT_EQ(Homed(RA.RealHome), 14);
  EXPECT_EQ(RA.Pins.size(), 3u);
  EXPECT_EQ(RA.Spills, 9u);
}

TEST(NativeJit, BackgroundCompilePublishesNativeCode) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  CompilerPool Pool(/*Threads=*/2);
  Vm::Config C = cfg(TierStrategy::Normal, true);
  C.Pool = &Pool;
  Vm V(C);
  V.eval("f <- function(n) { s <- 0L\n for (i in 1:n) s <- s + i\n s }");
  for (int K = 0; K < 4; ++K)
    V.eval("f(50L)");
  V.drainCompiles();
  Value R = V.eval("f(50L)");
  EXPECT_EQ(R.asIntUnchecked(), 1275);
  EXPECT_GT(stats().NativeEnters, 0u)
      << "the drained background compile must have published native "
         "code through the snapshot/COW discipline";
}

//===----------------------------------------------------------------------===//
// Boxed-slot templates and dirty register homes

namespace {

/// Hand-built LowCode, one instruction at a time.
struct LowBuilder {
  LowFunction F;

  LowBuilder(uint32_t Boxed, uint32_t Reals, uint32_t Ints) {
    F.NumSlots = Boxed;
    F.NumSlotsD = Reals;
    F.NumSlotsI = Ints;
  }
  void param(uint16_t Slot, SlotClass K) {
    F.ParamSlots.push_back(Slot);
    F.ParamClasses.push_back(K);
    ++F.NumParams;
  }
  int32_t constant(Value V) {
    F.Consts.push_back(std::move(V));
    return static_cast<int32_t>(F.Consts.size()) - 1;
  }
  void op(LowOp Op, uint16_t Dst, uint16_t A, uint16_t B, uint16_t C,
          int32_t Imm = 0) {
    LowInstr I;
    I.Op = Op;
    I.Dst = Dst;
    I.A = A;
    I.B = B;
    I.C = C;
    I.Imm = Imm;
    F.Code.push_back(I);
  }
};

constexpr uint16_t BoxedK = static_cast<uint16_t>(SlotClass::Boxed);
constexpr uint16_t RealK = static_cast<uint16_t>(SlotClass::RawReal);
constexpr uint16_t IntK = static_cast<uint16_t>(SlotClass::RawInt);

/// What one run of hand-built code did: its result (or error) and the
/// step-helper calls and copy-on-write copies it made.
struct RunResult {
  std::string Shown;
  uint64_t HelperCalls = 0;
  uint64_t CowCopies = 0;
};

RunResult runCode(ExecBackend &B, const LowFunction &F,
                  std::vector<Value> Args) {
  std::unique_ptr<ExecutableCode> X =
      B.prepare(std::make_unique<LowFunction>(F));
  VmStats Start = stats();
  RunResult R;
  try {
    Value V = X->run(std::move(Args), nullptr, nullptr);
    R.Shown = std::string(tagName(V.tag())) + " " + V.show();
  } catch (const RError &E) {
    R.Shown = std::string("error: ") + E.what();
  }
  VmStats D = stats() - Start;
  R.HelperCalls = D.NativeHelperCalls;
  R.CowCopies = D.CowCopies;
  uint64_t ByOp = 0;
  for (const RelaxedCounter &Cell : D.NativeHelperCallsByOp)
    ByOp += Cell;
  EXPECT_EQ(ByOp, R.HelperCalls) << "the per-op cells sum to the total";
  return R;
}

/// Runs \p F, whose parameter 0 is the boxed slot its first op
/// overwrites, with an immediate there (the template's fast path) and with
/// a heap vector (its stub), on the native tier. Every run must
/// return what the LowCode interpreter returns on the same arguments and
/// make as many copy-on-write copies; the stub calls the step helper once
/// more than the fast path, which calls it only for \p HelperOps other
/// ops; and the vector is released exactly once, so live heap bytes
/// return to where they were.
void checkTemplate(const LowFunction &F,
                   const std::function<std::vector<Value>()> &MoreArgs,
                   uint64_t HelperOps = 0) {
  for (bool Stub : {false, true}) {
    SCOPED_TRACE(Stub ? "old value on the heap (stub)"
                      : "old value immediate (fast path)");
    auto Args = [&] {
      std::vector<Value> A = {Stub ? Value::intVec({1, 2, 3, 4, 5, 6, 7, 8})
                                   : Value::integer(1)};
      for (Value &V : MoreArgs())
        A.push_back(std::move(V));
      return A;
    };
    const uint64_t Live = heapStats().LiveBytes;
    RunResult Want = runCode(interpBackend(), F, Args());
    EXPECT_EQ(heapStats().LiveBytes.load(), Live);
    std::unique_ptr<ExecBackend> B = makeNativeBackend();
    ASSERT_NE(B, nullptr);
    RunResult Got = runCode(*B, F, Args());
    EXPECT_EQ(Got.Shown, Want.Shown);
    EXPECT_EQ(Got.CowCopies, Want.CowCopies);
    EXPECT_EQ(Got.HelperCalls, HelperOps + (Stub ? 1 : 0));
    EXPECT_EQ(heapStats().LiveBytes.load(), Live)
        << "the old value must be released exactly once";
  }
}

} // namespace

TEST(NativeBoxed, BoxTakesFastPathAndStub) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  {
    LowBuilder L(1, 0, 1);
    L.param(0, SlotClass::Boxed);
    L.param(0, SlotClass::RawInt);
    L.op(LowOp::Box, 0, 0, 0, IntK);
    L.op(LowOp::RetLow, 0, 0, 0, 0);
    checkTemplate(L.F, [] { return std::vector<Value>{Value::integer(-7)}; });
  }
  {
    LowBuilder L(1, 1, 0);
    L.param(0, SlotClass::Boxed);
    L.param(0, SlotClass::RawReal);
    L.op(LowOp::Box, 0, 0, 0, RealK);
    L.op(LowOp::RetLow, 0, 0, 0, 0);
    checkTemplate(L.F, [] { return std::vector<Value>{Value::real(2.25)}; });
  }
}

TEST(NativeBoxed, ComparesTakeFastPathAndStub) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  const BinOp Ops[] = {BinOp::Lt, BinOp::Le, BinOp::Gt,
                       BinOp::Ge, BinOp::Eq, BinOp::Ne};
  const double NaN = std::nan("");
  for (BinOp Op : Ops) {
    SCOPED_TRACE(binOpName(Op));
    for (auto [X, Y] : {std::pair<int32_t, int32_t>{3, 5}, {5, 5}, {5, -3}}) {
      LowBuilder L(1, 0, 2);
      L.param(0, SlotClass::Boxed);
      L.param(0, SlotClass::RawInt);
      L.param(1, SlotClass::RawInt);
      L.op(LowOp::ArithTyped, 0, 0, 1, packArith(Op, 1));
      L.op(LowOp::RetLow, 0, 0, 0, 0);
      checkTemplate(L.F, [X = X, Y = Y] {
        return std::vector<Value>{Value::integer(X), Value::integer(Y)};
      });
    }
    for (auto [X, Y] : {std::pair<double, double>{1.5, 2.5},
                        {2.5, 2.5},
                        {2.5, 1.5},
                        {NaN, 1.0},
                        {NaN, NaN}}) {
      LowBuilder L(1, 2, 0);
      L.param(0, SlotClass::Boxed);
      L.param(0, SlotClass::RawReal);
      L.param(1, SlotClass::RawReal);
      L.op(LowOp::ArithTyped, 0, 0, 1, packArith(Op, 2));
      L.op(LowOp::RetLow, 0, 0, 0, 0);
      checkTemplate(L.F, [X = X, Y = Y] {
        return std::vector<Value>{Value::real(X), Value::real(Y)};
      });
    }
  }
}

TEST(NativeBoxed, LoadConstTakesFastPathAndStub) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  for (Value C : {Value::integer(42), Value::lgl(true), Value::real(-0.5),
                  Value::cplx(1.5, -2.5), Value::nil(),
                  Value::realVec({1.5, 2.5, 3.5}), Value::str("k")}) {
    SCOPED_TRACE(C.show());
    LowBuilder L(1, 0, 0);
    L.param(0, SlotClass::Boxed);
    L.op(LowOp::LoadConst, 0, 0, BoxedK, 0, L.constant(C));
    L.op(LowOp::RetLow, 0, 0, 0, 0);
    checkTemplate(L.F, [] { return std::vector<Value>{}; });
  }
}

TEST(NativeBoxed, MoveCopiesAndStealsTakeFastPathAndStub) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // A copy of a vector shares it: the element store into the copy must
  // copy it first (one cow_copies), leaving the source as it was.
  {
    LowBuilder L(3, 0, 2);
    L.param(0, SlotClass::Boxed);
    L.param(1, SlotClass::Boxed);
    L.param(0, SlotClass::RawInt);
    L.param(1, SlotClass::RawInt);
    L.op(LowOp::Move, 0, 1, BoxedK, 0);
    L.op(LowOp::SetElem2Typed, 2, 0, 0, packElem(Tag::Int), 1);
    L.op(LowOp::RetLow, 0, 1, 0, 0);
    checkTemplate(
        L.F,
        [] {
          return std::vector<Value>{Value::intVec({4, 5, 6}),
                                    Value::integer(2), Value::integer(9)};
        },
        /*HelperOps=*/1); // the element store
  }
  // Copies of immediates and of a string.
  for (Value Src : {Value::real(2.5), Value::cplx(0.5, 1), Value::str("s")}) {
    SCOPED_TRACE(Src.show());
    LowBuilder L(2, 0, 0);
    L.param(0, SlotClass::Boxed);
    L.param(1, SlotClass::Boxed);
    L.op(LowOp::Move, 0, 1, BoxedK, 0);
    L.op(LowOp::RetLow, 0, 0, 0, 0);
    checkTemplate(L.F, [Src] { return std::vector<Value>{Src}; });
  }
  // A steal moves the vector and leaves its source slot null.
  for (uint16_t Ret : {0, 1}) {
    SCOPED_TRACE(Ret ? "source" : "destination");
    LowBuilder L(2, 0, 0);
    L.param(0, SlotClass::Boxed);
    L.param(1, SlotClass::Boxed);
    L.op(LowOp::Move, 0, 1, BoxedK, 1);
    L.op(LowOp::RetLow, 0, Ret, 0, 0);
    checkTemplate(L.F,
                  [] { return std::vector<Value>{Value::intVec({4, 5})}; });
  }
}

TEST(NativeBoxed, BranchConditionsMatchInterpreter) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // A Lgl condition is tested inline; any other tag takes the condition
  // helper in its stub, errors included.
  for (LowOp Br : {LowOp::BranchTrueLow, LowOp::BranchFalseLow}) {
    LowBuilder L(2, 0, 0);
    L.param(0, SlotClass::Boxed);
    L.op(Br, 0, 0, 0, 0, 3);
    L.op(LowOp::LoadConst, 1, 0, BoxedK, 0, L.constant(Value::integer(1)));
    L.op(LowOp::RetLow, 0, 1, 0, 0);
    L.op(LowOp::LoadConst, 1, 0, BoxedK, 0, L.constant(Value::integer(2)));
    L.op(LowOp::RetLow, 0, 1, 0, 0);
    for (Value C : {Value::lgl(true), Value::lgl(false), Value::integer(0),
                    Value::integer(7), Value::real(0.5),
                    Value::str("yes")}) {
      SCOPED_TRACE(std::string(lowOpName(Br)) + " " + C.show());
      RunResult Want = runCode(interpBackend(), L.F, {C});
      std::unique_ptr<ExecBackend> B = makeNativeBackend();
      EXPECT_EQ(runCode(*B, L.F, {C}).Shown, Want.Shown);
    }
  }
}

TEST(NativeBoxed, HelperOpStoresHomesDirtyOnEitherPath) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // The element store at pc 3 runs through the step helper and reads the
  // raw index i0 and value i1 from the slot arrays. Each is register-homed
  // and written inline on one of the two paths into it, so at pc 3 i0 is
  // dirty when the branch falls through and i1 when it is taken: the
  // store must see both (dirty sets union at merges).
  LowBuilder L(3, 0, 3);
  L.param(0, SlotClass::Boxed); // condition
  L.param(1, SlotClass::Boxed); // vector
  L.param(0, SlotClass::RawInt);
  L.param(1, SlotClass::RawInt);
  L.op(LowOp::LoadConst, 2, 0, IntK, 0, L.constant(Value::integer(2)));
  L.op(LowOp::BranchTrueLow, 0, 0, 0, 0, 5);
  L.op(LowOp::ArithTyped, 0, 0, 2, packArith(BinOp::Add, 1)); // i0 += 2
  L.op(LowOp::SetElem2Typed, 2, 1, 0, packElem(Tag::Int), 1);
  L.op(LowOp::RetLow, 0, 2, 0, 0);
  L.op(LowOp::ArithTyped, 1, 1, 2, packArith(BinOp::Mul, 1)); // i1 *= 2
  L.op(LowOp::JumpLow, 0, 0, 0, 0, 3);
  for (bool Taken : {false, true}) {
    SCOPED_TRACE(Taken ? "taken" : "fallthrough");
    auto Args = [&] {
      return std::vector<Value>{Value::lgl(Taken),
                                Value::intVec({1, 2, 3, 4, 5}),
                                Value::integer(1), Value::integer(21)};
    };
    RunResult Want = runCode(interpBackend(), L.F, Args());
    ASSERT_EQ(Want.Shown, Taken ? "integer[] c(42L, 2L, 3L, 4L, 5L)"
                                : "integer[] c(1L, 2L, 21L, 4L, 5L)");
    std::unique_ptr<ExecBackend> B = makeNativeBackend();
    RunResult Got = runCode(*B, L.F, Args());
    EXPECT_EQ(Got.Shown, Want.Shown);
    EXPECT_EQ(Got.HelperCalls, 1u);
  }
}

TEST(NativeBoxed, BoxingLoopMakesNoHelperCallsPerIteration) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // x <- s boxes the loop-carried int s every iteration. After warmup the
  // loop makes no step-helper call: f(1000L) makes as many as f(10L).
  const char *Setup = R"(
    f <- function(n) {
      x <- NULL
      s <- 0L
      for (i in 1:n) {
        s <- s + i
        x <- s
      }
      x
    }
  )";
  std::string Base10 =
      runUnder(cfg(TierStrategy::BaselineOnly, false), Setup, "f(10L)", 1);
  std::string Base1000 =
      runUnder(cfg(TierStrategy::BaselineOnly, false), Setup, "f(1000L)", 1);
  Vm V(cfg(TierStrategy::Normal, true));
  V.eval(Setup);
  for (int K = 0; K < 6; ++K)
    ASSERT_EQ(V.eval("f(10L)").show(), Base10);
  ASSERT_GT(stats().NativeEnters, 0u);
  uint64_t H0 = stats().NativeHelperCalls;
  EXPECT_EQ(V.eval("f(10L)").show(), Base10);
  uint64_t H1 = stats().NativeHelperCalls;
  EXPECT_EQ(V.eval("f(1000L)").show(), Base1000);
  uint64_t H2 = stats().NativeHelperCalls;
  EXPECT_EQ(H2 - H1, H1 - H0) << "helper calls must not grow with n";
}

TEST(NativeHelperCalls, PerOpCellsSumToTheTotal) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // The global closure g is loaded (ldenv) and called (call) through the
  // step helper on every iteration; the folded builtin is not loaded.
  Vm V(cfg(TierStrategy::Normal, true));
  V.eval(R"(
    g <- function(x) x + 1L
    f <- function(n) {
      s <- 0L
      for (i in 1:n) s <- s + g(i) + abs(i)
      s
    }
  )");
  VmStats Start = stats();
  for (int K = 0; K < 6; ++K)
    ASSERT_EQ(V.eval("f(50L)").toInt(), 2600);
  VmStats D = stats() - Start;
  uint64_t ByOp = 0;
  for (const RelaxedCounter &Cell : D.NativeHelperCallsByOp)
    ByOp += Cell;
  EXPECT_GT(D.NativeHelperCalls, 0u);
  EXPECT_EQ(ByOp, D.NativeHelperCalls);
  auto Cell = [&](LowOp Op) {
    return D.NativeHelperCallsByOp[static_cast<uint8_t>(Op)].load();
  };
  EXPECT_GE(Cell(LowOp::LdEnv), 4u * 50u) << "g's load, per iteration";
  EXPECT_GE(Cell(LowOp::CallValLow), 4u * 50u) << "g's call";
}

TEST(NativeBoxed, ElementStoreTakesFastPathAndStub) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // A stolen int or real element store from container slot 1 to Dst slot
  // 0 runs inline when the container is an unshared vector of its kind
  // and the index is within its length; checkTemplate also puts a heap
  // object in Dst, which takes the stub. Every other stub case, with an
  // immediate in Dst, makes one step-helper call, and a store whose Dst is
  // its container slot makes none.
  for (bool Real : {false, true}) {
    SCOPED_TRACE(Real ? "double" : "int");
    auto Vec = [Real] {
      return Real ? Value::realVec({4.5, 5.5, 6.5}) : Value::intVec({4, 5, 6});
    };
    auto Elem = [Real] { return Real ? Value::real(9.5) : Value::integer(9); };
    for (uint16_t Dst : {0, 1}) {
      LowBuilder L(2, Real ? 1 : 0, Real ? 1 : 2);
      L.param(0, SlotClass::Boxed);
      L.param(1, SlotClass::Boxed);
      L.param(0, SlotClass::RawInt);
      if (Real)
        L.param(0, SlotClass::RawReal);
      else
        L.param(1, SlotClass::RawInt);
      L.op(LowOp::SetElem2Typed, Dst, 1, 0,
           packElem(Real ? Tag::Real : Tag::Int, /*Steal=*/true), Real ? 0 : 1);
      L.op(LowOp::RetLow, 0, Dst, 0, 0);
      if (Dst == 0)
        checkTemplate(L.F, [&] {
          return std::vector<Value>{Vec(), Value::integer(2), Elem()};
        });
      const Value Shared = Vec();
      struct Case {
        std::function<Value()> Container;
        int32_t Idx;
        bool Inline;
      };
      const Case Cases[] = {
          {Vec, 2, true},                        // in bounds
          {[&] { return Shared; }, 2, false},    // shared: one copy
          {Vec, 4, false},                       // growth
          {Vec, 0, false},                       // index 0: an error
          {Vec, 5000000, false},                 // far past the end
          {Elem, 1, false}};                     // a scalar container
      for (const Case &C : Cases) {
        SCOPED_TRACE("Dst s" + std::to_string(Dst) + ", " +
                     C.Container().show() + "[[" + std::to_string(C.Idx) +
                     "]]");
        auto Args = [&] {
          return std::vector<Value>{Value::integer(0), C.Container(),
                                    Value::integer(C.Idx), Elem()};
        };
        RunResult Want = runCode(interpBackend(), L.F, Args());
        std::unique_ptr<ExecBackend> B = makeNativeBackend();
        RunResult Got = runCode(*B, L.F, Args());
        EXPECT_EQ(Got.Shown, Want.Shown);
        EXPECT_EQ(Got.CowCopies, Want.CowCopies);
        EXPECT_EQ(Got.HelperCalls, C.Inline ? 0u : 1u);
      }
      EXPECT_EQ(Shared.show(), Vec().show()) << "the shared vector is copied";
    }
  }
}

TEST(NativeBoxed, LengthOfIntAndRealVectorsIsInline) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // length() of an int or real vector reads its element count inline;
  // any other value takes the stub and the step helper.
  LowBuilder L(2, 0, 1);
  L.param(0, SlotClass::Boxed);
  L.op(LowOp::LengthLow, 0, 0, 0, 0);
  L.op(LowOp::Box, 1, 0, 0, IntK);
  L.op(LowOp::RetLow, 0, 1, 0, 0);
  const std::pair<Value, uint64_t> Cases[] = {
      {Value::intVec({1, 2, 3}), 0}, {Value::realVec({1.5, 2.5}), 0},
      {Value::intVec({}), 0},        {Value::integer(5), 1},
      {Value::nil(), 1},             {Value::lglVec({1, 0, 1, 1}), 1},
      {Value::str("abc"), 1},        {Value::list({Value::integer(1)}), 1}};
  for (const auto &[V, Helper] : Cases) {
    SCOPED_TRACE(V.show());
    RunResult Want = runCode(interpBackend(), L.F, {V});
    std::unique_ptr<ExecBackend> B = makeNativeBackend();
    RunResult Got = runCode(*B, L.F, {V});
    EXPECT_EQ(Got.Shown, Want.Shown);
    EXPECT_EQ(Got.HelperCalls, Helper);
  }
}

TEST(NativeHelperCalls, InBoundsStoresAndLengthsStayInline) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // fill stores into its own vector in one loop, and each loop's entry
  // takes its sequence's length: an int vector's, then a double vector's.
  // In bounds, neither the typed store nor a length reaches the step
  // helper.
  const char *Setup = R"(
    fill <- function(n, w) {
      v <- numeric(n)
      for (i in 1:n) v[[i]] <- i * 0.5
      s <- 0
      for (x in w) s <- s + x
      s + v[[n]]
    }
    w <- as.numeric(1:50)
  )";
  std::string Want = runUnder(cfg(TierStrategy::BaselineOnly, false), Setup,
                              "fill(300L, w)", 1);
  Vm::Config C = cfg(TierStrategy::Normal, true);
  C.OsrThreshold = 1000000; // whole-function code only
  Vm V(C);
  V.eval(Setup);
  for (int K = 0; K < 6; ++K)
    ASSERT_EQ(V.eval("fill(300L, w)").show(), Want);
  FnVersion *Ver =
      V.stateFor(V.eval("fill").closObj()->Fn).Versions.mostGenericLive();
  ASSERT_TRUE(Ver);
  const std::string Low = printLow(Ver->code()->low());
  ASSERT_NE(Low.find(" setelem2.t "), std::string::npos) << Low;
  ASSERT_NE(Low.find(" length "), std::string::npos) << Low;
  VmStats Start = stats();
  for (int K = 0; K < 4; ++K)
    EXPECT_EQ(V.eval("fill(300L, w)").show(), Want);
  VmStats D = stats() - Start;
  auto Cell = [&](LowOp Op) {
    return D.NativeHelperCallsByOp[static_cast<uint8_t>(Op)].load();
  };
  EXPECT_GT(D.NativeEnters, 0u);
  EXPECT_EQ(Cell(LowOp::SetElem2Typed), 0u);
  EXPECT_EQ(Cell(LowOp::LengthLow), 0u);
  EXPECT_EQ(D.CowCopies, 0u);
}

TEST(NativeBoxed, IntModAndDivTakeFastPathAndStub) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // Floored %% and %/% inline; a divisor of 0 (an error) or -1 (INT_MIN
  // would trap) takes the stub and the step helper. The self-moves give
  // the operands and the result register homes under regalloc.
  for (BinOp Op : {BinOp::Mod, BinOp::IDiv}) {
    LowBuilder L(1, 0, 3);
    L.param(0, SlotClass::RawInt);
    L.param(1, SlotClass::RawInt);
    L.op(LowOp::Move, 0, 0, IntK, 0);
    L.op(LowOp::Move, 1, 1, IntK, 0);
    L.op(LowOp::ArithTyped, 2, 0, 1, packArith(Op, 1));
    L.op(LowOp::Move, 2, 2, IntK, 0);
    L.op(LowOp::Box, 0, 2, 0, IntK);
    L.op(LowOp::RetLow, 0, 0, 0, 0);
    for (int32_t X : {7, -7, 6, 0, INT32_MIN, INT32_MAX})
      for (int32_t Y : {3, -3, 1, 7, -1, 0}) {
        SCOPED_TRACE(std::string(binOpName(Op)) + " " + std::to_string(X) +
                     ", " + std::to_string(Y));
        auto Args = [&] {
          return std::vector<Value>{Value::integer(X), Value::integer(Y)};
        };
        RunResult Want = runCode(interpBackend(), L.F, Args());
        std::unique_ptr<ExecBackend> B = makeNativeBackend();
        RunResult Got = runCode(*B, L.F, Args());
        EXPECT_EQ(Got.Shown, Want.Shown);
        EXPECT_EQ(Got.HelperCalls, Y == 0 || Y == -1 ? 1u : 0u);
      }
  }
}
