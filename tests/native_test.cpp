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

#include "dispatch/context.h"
#include "dispatch/table.h"
#include "native/native.h"
#include "native/regalloc.h"
#include "support/stats.h"
#include "vm/vm.h"

#include <gtest/gtest.h>

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
// Native tier v2: register allocation and direct linking

/// Both v2 features forced on, independent of the RJIT_NATIVE_V2
/// environment (CI's off-switch job must not turn these tests into
/// no-ops).
Vm::Config v2cfg(TierStrategy S) {
  Vm::Config C = cfg(S, true);
  C.NativeV2.Regalloc = true;
  C.NativeV2.Linking = true;
  return C;
}

TEST(NativeV2, RegisterAllocationSpillsDeterministically) {
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

  NativeTierOptions O;
  O.Regalloc = true;
  O.Linking = false;
  std::unique_ptr<ExecBackend> B = makeNativeBackend(O);
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

TEST(NativeV2, TypedReductionMatchesInterpreter) {
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
  std::string Native = runUnder(v2cfg(TierStrategy::Normal),
                                Setup + std::string("v <- as.numeric(1:64)"),
                                "dot(v, 64L)", 8, &S);
  EXPECT_EQ(Interp, Native);
  EXPECT_GT(S.NativeCompiles, 0u);
}

TEST(NativeV2, RawFrameStateValuesLeaveRegisterHomes) {
  // The element guard of `s + x` fails mid-loop while the raw int
  // accumulator n and the raw real accumulator s are in its frame state,
  // both updated since the list extract's helper call last flushed the
  // register homes. Deopt and deoptless box them from the slot arrays, so
  // the native side exit must flush every home first (removing that
  // flush fails this case under native v2). The injected failures take
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

  struct Backend {
    const char *Name;
    bool Native;
    bool V2;
  };
  std::vector<Backend> Backends = {{"interp", false, false}};
  if (nativeBackendSupported()) {
    Backends.push_back({"native v2 on", true, true});
    Backends.push_back({"native v2 off", true, false});
  }
  for (TierStrategy S : {TierStrategy::Normal, TierStrategy::Deoptless}) {
    for (const Backend &B : Backends) {
      SCOPED_TRACE(std::string(B.Name) + (S == TierStrategy::Normal
                                              ? ", Normal"
                                              : ", Deoptless"));
      Vm::Config C = cfg(S, B.Native);
      C.NativeV2.Regalloc = C.NativeV2.Linking = B.V2;
      {
        Vm V(C);
        V.eval(Setup);
        for (int K = 0; K < 6; ++K)
          ASSERT_EQ(V.eval("mix(ints)").show(), BaseInts);
        if (B.Native) {
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

TEST(NativeV2, RetireWhileLinkedPatchesBackBeforeReclaim) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // The linking soundness invariant: when a linked callee version is
  // retired, every predecessor's direct transfer is severed at retire
  // time — strictly before the graveyard safepoint can unmap the target
  // block — and the site falls back to full dispatch, then relinks once
  // a replacement version is published.
  Vm::Config C = v2cfg(TierStrategy::Normal);
  C.Inlining = false; // keep g an out-of-line call so the site links
  C.ReclaimAtSafepoints = true;
  Vm V(C);
  V.eval(R"(
    g <- function(x) x + 1L
    h <- function(n) {
      s <- 0L
      for (i in 1:n) s <- s + g(i)
      s
    }
  )");
  for (int K = 0; K < 6; ++K)
    ASSERT_EQ(V.eval("h(50L)").asIntUnchecked(), 1325);
  ASSERT_GT(stats().NativeEnters, 0u);
  ASSERT_GT(stats().NativeLinkedTransfers, 0u)
      << "h's call site must have linked to g's published version";

  Function *GFn = V.eval("g").closObj()->Fn;
  FnVersion *Ver = V.stateFor(GFn).Versions.dispatch(genericContext(1));
  ASSERT_NE(Ver, nullptr);
  ExecutableCode *GCode = Ver->code();
  ASSERT_NE(GCode, nullptr);
  ASSERT_GE(V.backend()->linkedPredecessors(GCode), 1u)
      << "the link registry must know h's site points into g's code";

  // Type change: g's int-speculated version deopts and is retired. The
  // eval finishes in the baseline with no further closure dispatch, so
  // the safepoint has NOT run yet: the dead code is graveyarded but not
  // reclaimed — and the predecessor count must already be zero. That
  // ordering (unlink at retire, reclaim at the later safepoint) is what
  // keeps a linked jump from ever targeting unmapped memory.
  uint64_t Retired = stats().GraveyardSize;
  V.eval("g(1.5)");
  EXPECT_GT(stats().Deopts, 0u);
  EXPECT_GT(stats().GraveyardSize, Retired)
      << "the deopted version must be graveyarded, not freed";
  EXPECT_EQ(V.backend()->linkedPredecessors(GCode), 0u)
      << "retire must sever every predecessor link before reclamation";

  // The severed site must fall back to dispatch (correctness) and relink
  // once g republishes: linked transfers resume growing.
  for (int K = 0; K < 6; ++K)
    ASSERT_EQ(V.eval("h(50L)").asIntUnchecked(), 1325);
  uint64_t AfterRepublish = stats().NativeLinkedTransfers;
  for (int K = 0; K < 4; ++K)
    ASSERT_EQ(V.eval("h(50L)").asIntUnchecked(), 1325);
  EXPECT_GT(stats().NativeLinkedTransfers, AfterRepublish)
      << "the site must relink to the republished version";
}

TEST(NativeJit, BackgroundCompilePublishesNativeCode) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  Vm::Config C = cfg(TierStrategy::Normal, true);
  C.BackgroundCompile = true;
  C.CompilerThreads = 2;
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
