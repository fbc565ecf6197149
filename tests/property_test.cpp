//===-- tests/property_test.cpp - Cross-tier differential testing ----------===//
//
// Two layers of cross-tier equivalence checking:
//
//  * parameterized grids (operator x operand kind, comparisons, phase
//    changes, injected invalidation) — the seed's property tests, now
//    swept over *every* tier strategy (including ProfileDrivenReopt) and
//    the ContextDispatch / Inlining ablation axes;
//
//  * a seeded random-program differential fuzzer: a small generator emits
//    programs over scalars, vectors, lists, branches, calls, higher-order
//    calls, recursion, nested loops with loop-carried dependencies,
//    loop-invariant subexpressions, guarded invariant calls and a hot
//    top-level loop storing globals, with type phase-changes; each
//    program runs under all strategy x dispatch x inlining x loop-opts
//    combinations (plus random-invalidation configurations) and every
//    configuration must produce the byte-identical transcript. A final
//    test asserts — via the VM stats — that the sweep actually took the
//    multi-frame deopt and deoptless-continuation paths speculative
//    inlining introduces, and that the loop layer provably hoisted and
//    eliminated guards across the corpus;
//
//  * a *concurrent* differential mode: the same 500 programs re-run with
//    BackgroundCompile on — N executor threads, each driving its own Vm,
//    all sharing one compiler pool — and every transcript must stay
//    byte-identical to the single-threaded synchronous baseline
//    (drainCompiles() barriers at the phase changes). This is the
//    workload the ThreadSanitizer CI job runs: racing publication,
//    snapshot capture against a writing interpreter, and guard-failure
//    paths against in-flight compiles.
//
// Failures print the generator seed for standalone reproduction.
//
//===----------------------------------------------------------------------===//

#include "compile/pool.h"
#include "native/native.h"
#include "support/rng.h"
#include "support/stats.h"
#include "vm/vm.h"

#include <gtest/gtest.h>

#include <mutex>
#include <thread>

using namespace rjit;

namespace {

Vm::Config cfg(TierStrategy S, bool CtxDispatch = false,
               bool Inlining = false) {
  Vm::Config C;
  C.Strategy = S;
  C.CompileThreshold = 2;
  C.OsrThreshold = 100;
  C.ContextDispatch = CtxDispatch;
  C.Inlining = Inlining;
  return C;
}

/// The NativeTier sweep axis: both backends where the template JIT can
/// run, the interpreter alone elsewhere (the axis then degenerates and
/// the sweep is unchanged — non-x86-64 hosts still run the full matrix).
const std::vector<bool> &nativeAxis() {
  static const std::vector<bool> Axis =
      nativeBackendSupported() ? std::vector<bool>{false, true}
                               : std::vector<bool>{false};
  return Axis;
}

/// Under Deoptless every true deopt has exactly one counted cause: a
/// refusal (recursive, materialized environment, builtin redefinition) or
/// a reject. Checked after every run, the concurrent sweep's included:
/// the counters are the run's own Vm's.
void expectDeoptCausesAddUp(const Vm::Config &C) {
  if (C.Strategy != TierStrategy::Deoptless)
    return;
  const VmStats &S = stats();
  EXPECT_EQ(S.Deopts, S.DeoptlessSkipRecursive + S.DeoptlessSkipEnv +
                          S.DeoptlessSkipBuiltin + S.DeoptlessRejected);
}

/// Runs a program (setup + 8x driver) under one configuration; returns the
/// final driver value rendered to text (covers non-numeric results too).
std::string runOne(const std::string &Setup, const std::string &Driver,
                   Vm::Config C) {
  Vm V(C);
  V.eval(Setup);
  Value R;
  for (int K = 0; K < 8; ++K)
    R = V.eval(Driver);
  expectDeoptCausesAddUp(C);
  return R.show();
}

/// The full ablation sweep: every optimizing strategy (the seed never
/// checked ProfileDrivenReopt) crossed with contextual dispatch and
/// speculative inlining must match the baseline interpreter.
void expectAllTiersAgree(const std::string &Setup,
                         const std::string &Driver) {
  std::string Base =
      runOne(Setup, Driver, cfg(TierStrategy::BaselineOnly));
  for (TierStrategy S : {TierStrategy::Normal, TierStrategy::Deoptless,
                         TierStrategy::ProfileDrivenReopt})
    for (bool Ctx : {false, true})
      for (bool Inl : {false, true})
        EXPECT_EQ(Base, runOne(Setup, Driver, cfg(S, Ctx, Inl)))
            << "strategy " << static_cast<int>(S) << " ctx=" << Ctx
            << " inl=" << Inl << " diverged on: " << Driver;
}

} // namespace

//===----------------------------------------------------------------------===//
// Operator x operand-kind grid

struct ArithCase {
  const char *Op;
  const char *Lhs;
  const char *Rhs;
};

class ArithGrid : public ::testing::TestWithParam<ArithCase> {};

TEST_P(ArithGrid, TiersAgreeOnFold) {
  const ArithCase &C = GetParam();
  // A fold over the operator keeps the optimizer honest about result
  // types (accumulator phis, coercions) rather than just constant math.
  std::string Setup = std::string("f <- function(a, b) {\n") +
                      "  acc <- a\n  for (k in 1:10) acc <- (acc " + C.Op +
                      " b)\n  acc\n}\n" + "lhs <- " + C.Lhs + "\nrhs <- " +
                      C.Rhs;
  expectAllTiersAgree(Setup, "f(lhs, rhs)");
}

INSTANTIATE_TEST_SUITE_P(
    Ops, ArithGrid,
    ::testing::Values(
        ArithCase{"+", "1L", "2L"}, ArithCase{"+", "1.5", "2L"},
        ArithCase{"+", "1L", "2.5"}, ArithCase{"+", "1.5", "2.5"},
        ArithCase{"+", "1i", "2.5"}, ArithCase{"-", "100L", "3L"},
        ArithCase{"-", "10.5", "0.25"}, ArithCase{"*", "3L", "2L"},
        ArithCase{"*", "1.01", "1.01"}, ArithCase{"*", "1i", "1i"},
        ArithCase{"/", "1000L", "2L"}, ArithCase{"/", "7.5", "0.5"},
        ArithCase{"%%", "17L", "5L"}, ArithCase{"%%", "17.5", "5.2"},
        ArithCase{"%/%", "17L", "5L"}, ArithCase{"^", "1.1", "1.01"}),
    [](const ::testing::TestParamInfo<ArithCase> &Info) {
      std::string N = std::string("op") + std::to_string(Info.index);
      return N;
    });

//===----------------------------------------------------------------------===//
// Comparison sweep

class CmpGrid : public ::testing::TestWithParam<ArithCase> {};

TEST_P(CmpGrid, TiersAgreeOnCount) {
  const ArithCase &C = GetParam();
  std::string Setup =
      std::string("count <- function(v, t) {\n  n <- 0L\n  for (i in "
                  "1:length(v)) if (v[[i]] ") +
      C.Op + " t) n <- n + 1L\n  n\n}\nvec <- " + C.Lhs + "\nthr <- " +
      C.Rhs;
  expectAllTiersAgree(Setup, "count(vec, thr)");
}

INSTANTIATE_TEST_SUITE_P(
    Cmps, CmpGrid,
    ::testing::Values(ArithCase{"<", "1:100", "50L"},
                      ArithCase{"<=", "1:100", "50L"},
                      ArithCase{">", "as.numeric(1:100)", "49.5"},
                      ArithCase{">=", "as.numeric(1:100)", "49.5"},
                      ArithCase{"==", "1:100", "7L"},
                      ArithCase{"!=", "1:100", "7L"}),
    [](const ::testing::TestParamInfo<ArithCase> &Info) {
      return std::string("cmp") + std::to_string(Info.index);
    });

//===----------------------------------------------------------------------===//
// Randomized phase-change fuzz: feed a function random sequences of
// differently-typed vectors; all strategies must agree on the running sum.

class PhaseFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PhaseFuzz, RandomPhaseSequencesAgree) {
  Rng R(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  const char *Kinds[] = {"1:50", "as.numeric(1:50)", "as.complex(1:50)",
                         "c(TRUE, FALSE, TRUE)"};
  std::string Driver = "r <- 0i\n";
  for (int K = 0; K < 12; ++K) {
    Driver += "r <- r + sum_data(";
    Driver += Kinds[R.below(4)];
    Driver += ")\n";
  }
  Driver += "r";
  const char *Setup = R"(
    sum_data <- function(data) {
      total <- 0L
      for (i in 1:length(data)) total <- total + data[[i]]
      total
    }
  )";
  expectAllTiersAgree(Setup, Driver);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhaseFuzz, ::testing::Range(1, 9));

//===----------------------------------------------------------------------===//
// Randomized invalidation fuzz: results must be identical at any rate.

class RateFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RateFuzz, InjectionNeverChangesResults) {
  const char *Setup = R"(
    work <- function(n) {
      v <- integer(n)
      for (i in 1:n) v[[i]] <- (i * 7L) %% 13L
      s <- 0L
      for (i in 1:n) if (v[[i]] > 6L) s <- s + v[[i]]
      s
    }
  )";
  std::string Base =
      runOne(Setup, "work(500L)", cfg(TierStrategy::BaselineOnly));
  for (TierStrategy S : {TierStrategy::Normal, TierStrategy::Deoptless})
    for (bool Inl : {false, true}) {
      Vm::Config C = cfg(S, /*CtxDispatch=*/Inl, Inl);
      C.InvalidationRate = static_cast<uint64_t>(GetParam());
      C.InvalidationSeed = GetParam() * 31 + 7;
      Vm V(C);
      V.eval(Setup);
      Value Last;
      for (int K = 0; K < 8; ++K)
        Last = V.eval("work(500L)");
      EXPECT_EQ(Last.show(), Base) << "rate " << GetParam();
      expectDeoptCausesAddUp(C);
    }
}

INSTANTIATE_TEST_SUITE_P(Rates, RateFuzz,
                         ::testing::Values(50, 200, 1000, 5000));

//===----------------------------------------------------------------------===//
// Regressions found by the differential fuzzer

TEST(FuzzRegression, MixedKindBranchKeepsIntResult) {
  // Found by DiffFuzz (seed 1589): with context-specialized parameter
  // types both branch arms become precisely typed, and the old numeric
  // phi promotion coerced the merged result to double — turning the
  // else-branch's 64L into 64. The branch result's kind must follow the
  // executed arm.
  expectAllTiersAgree("kB <- function(a, b) if (a > b) a - b else b * 8L",
                      "kB(2.4, 8L)");
}

TEST(FuzzRegression, RepairMustNotPoisonOtherContexts) {
  // Found by DiffFuzz (seed 410): compiling a (real, real) context
  // version repaired the callee's int profile to real *in place*, so a
  // later inlined copy guarded "is real" on an int constant — an
  // always-failing guard whose deopt materialized a coerced accumulator.
  const char *Setup = R"(
    kA <- function(a, b) {
      acc <- a
      for (i in 1:3) acc <- acc - (b - 3L)
      acc
    }
    kD <- function(l, i) kA(l[[i]], 1L)
    li <- list(3L, 2L, 3L, 8L)
    lr <- list(8.1, 9.9, 2.9, 7.9)
  )";
  expectAllTiersAgree(Setup, "kD(li, 1L)\nkA(1.7, 9.1)\nkD(lr, 3L)\n"
                             "kD(lr, 1L)\nkD(li, 1L)");
}

TEST(FuzzRegression, IntMinDivisionDoesNotTrap) {
  // `1073741824L * 2L` wraps to INT_MIN by design (defined unsigned
  // wraparound); dividing that by -1 is the one remaining signed-overflow
  // case and used to raise SIGFPE on x86. Both %/% and %% must instead
  // wrap/zero identically in every tier.
  expectAllTiersAgree("f <- function(a, b) (a * 2L) %/% b",
                      "f(1073741824L, -1L)");
  expectAllTiersAgree("f <- function(a, b) (a * 2L) %% b",
                      "f(1073741824L, -1L)");
}

//===----------------------------------------------------------------------===//
// Random-program differential fuzzer

namespace {

/// A generated program: definitions + data, and a driver script whose
/// per-statement values form the comparison transcript.
struct GenProg {
  std::string Setup;
  std::vector<std::string> Drivers;
};

/// Emits mini-R programs over the features the tiers disagree on first
/// when something is wrong: scalar arithmetic with type phase-changes,
/// vector folds, list element extraction feeding calls (argument types
/// the caller cannot prove), call chains (speculative inlining), higher-
/// order calls (nested inlining), branches and recursion. All arithmetic
/// is bounded so no int32 overflow or error path is reachable, keeping
/// transcripts comparable across tiers.
class ProgramGen {
public:
  explicit ProgramGen(uint64_t Seed) : R(Seed) {}

  GenProg generate() {
    GenProg P;
    P.Setup = defs();
    // Two rounds over the same lines: round one warms and compiles,
    // round two re-executes phase-changed code (continuations, retired
    // versions, reopt sampling) at steady state.
    std::vector<std::string> Lines = driverLines();
    // kT: a top-level loop long enough to OSR-in (the fuzz configs'
    // OsrThreshold is 100) stores globals that two later lines read.
    // Top-level code runs in the global environment, so its OSR-in code
    // must keep those stores. A line of its own: a top level that defines
    // closures keeps its environment anyway. Drawn last, so every other
    // shape's draws are unchanged.
    Lines.push_back(std::string("tg <- 0L\ntv <- integer(150L)\n"
                                "for (k in 1:150) {\n  tg <- tg ") +
                    addSub() + " (k %% " + intLit() +
                    ")\n  tv[[k]] <- tg\n}");
    Lines.push_back("tg");
    Lines.push_back("tv[[" + std::to_string(1 + R.below(149)) + "L]]");
    // kI: an int-initialized accumulator over double, empty, complex and
    // int data. Warmed on doubles, its loop is peeled (the accumulator
    // enters as 0L and comes around as a double); the empty vector then
    // takes the zero-trip exit in front of the peeled iteration and must
    // return 0L, and complex data fails the element guard (a deopt or a
    // continuation, which peels again). Drawn after every other shape,
    // so their draws are unchanged.
    P.Setup += std::string("kI <- function(v) {\n  acc <- 0L\n"
                           "  for (x in v) acc <- acc ") +
               addSub() + " x\n  acc\n}\nvc <- as.complex(vr)\n";
    for (const char *Arg : {"vr", "vr", "vr", "numeric(0)", "vc", "vc",
                            "complex(0)", "vr", "vi", "numeric(0)"})
      Lines.push_back(std::string("kI(") + Arg + ")");
    // kU: a loop whose optimized code folds the global builtins length
    // and abs (no load, no guard) while it calls kV, which rebinds abs
    // through <<- when i reaches t: the epoch check after that call fails
    // mid-loop. Between drivers the top level rebinds abs, then restores
    // the saved builtin. Drawn after every other shape, so their draws
    // are unchanged.
    P.Setup += std::string("kV <- function(i, t) {\n"
                           "  if (i == t) abs <<- function(x) x ") +
               addSub() + " " + intLit() +
               "\n  i\n}\n"
               "kU <- function(v, t) {\n  s <- 0L\n"
               "  for (i in 1:length(v)) {\n    kV(i, t)\n    s <- s " +
               addSub() + " abs(v[[i]])\n  }\n  s\n}\n"
               "saved_abs <- abs\n";
    for (const char *Line :
         {"kU(vi, 0L)", "kU(vi, 0L)", "kU(vi, 0L)", "kU(vi, 2L)",
          "kU(vi, 0L)", "abs <- function(x) x * 2L", "kU(vi, 0L)",
          "abs <- saved_abs", "kU(vi, 0L)", "kU(vi, 0L)"})
      Lines.push_back(Line);
    P.Drivers = Lines;
    P.Drivers.insert(P.Drivers.end(), Lines.begin(), Lines.end());
    return P;
  }

private:
  Rng R;

  std::string intLit() { return std::to_string(1 + R.below(9)) + "L"; }
  std::string realLit() {
    return std::to_string(1 + R.below(9)) + "." +
           std::to_string(R.below(10));
  }
  /// Phase-typed scalar: phase 0 leans int, phase 1 leans real.
  std::string scalar(int Phase) {
    if (R.below(4) == 0) // some cross-phase noise on purpose
      Phase ^= 1;
    return Phase ? realLit() : intLit();
  }
  const char *addSub() { return R.below(2) ? "+" : "-"; }
  const char *arith() {
    switch (R.below(3)) {
    case 0:
      return "+";
    case 1:
      return "-";
    default:
      return "*";
    }
  }
  const char *cmp() { return R.below(2) ? ">" : "<"; }

  std::string defs() {
    std::string S;
    int LoopN = 3 + static_cast<int>(R.below(6));
    // kA: loop-accumulating scalar kernel (leaf; inlinable).
    S += "kA <- function(a, b) {\n  acc <- a\n  for (i in 1:" +
         std::to_string(LoopN) + ") acc <- acc " + addSub() + " (b " +
         arith() + " " + intLit() + ")\n  acc\n}\n";
    // kB: branchy scalar kernel (leaf; inlinable).
    S += std::string("kB <- function(a, b) if (a ") + cmp() +
         " b) a " + addSub() + " b else b " + arith() + " " + intLit() +
         "\n";
    // kF: one-argument leaf for higher-order calls.
    S += std::string("kF <- function(x) x ") + addSub() + " " + intLit() +
         "\n";
    // kC: vector fold (leaf; inlinable — length arrives as a parameter).
    S += std::string("kC <- function(v, n) {\n  s <- 0L\n  for (i in 1:n) "
                     "s <- s ") +
         addSub() + " v[[i]]\n  s\n}\n";
    // kD: extracts a list element (type invisible to the caller) and
    // feeds it to kA — the multi-frame deopt shape.
    S += std::string("kD <- function(l, i) kA(l[[i]], ") + intLit() +
         ")\n";
    // kE: higher-order caller — monomorphic g sites become nested
    // CallStatic chains under inlining.
    S += std::string("kE <- function(g, x) g(x) ") + addSub() + " " +
         intLit() + "\n";
    // kR: recursion (reads its own name; never inlined, always guarded).
    S += std::string("kR <- function(n) if (n > 0L) kR(n - 1L) ") +
         addSub() + " " + intLit() + " else " + intLit() + "\n";
    // kH: a guarded *invariant* call inside a loop — the callee-identity
    // guard on g is per-iteration until the loop layer hoists it to the
    // preheader (the LoopOpts shape).
    S += std::string("kH <- function(g, x, n) {\n  s <- 0L\n  for (i in "
                     "1:n) s <- s ") +
         addSub() + " g(x)\n  s\n}\n";
    // kP: the same callee guarded twice in straight line — the dominated
    // duplicate is redundant-guard-elimination fodder.
    S += std::string("kP <- function(g, x) g(x) ") + addSub() + " g(x)\n";
    // kN: nested loops, a loop-carried accumulator crossing both levels,
    // and a subexpression invariant in both (LICM fodder).
    S += std::string("kN <- function(v, n, w) {\n  s <- 0L\n"
                     "  for (i in 1:n) {\n"
                     "    for (j in 1:n) s <- s ") +
         addSub() + " (v[[j]] " + addSub() + " (w " + arith() + " " +
         intLit() + "))\n    s <- s " + addSub() +
         " i\n  }\n  s\n}\n";
    // kW: a *while* loop that can run zero iterations — the body must
    // never execute speculatively: a hoisted guard may deopt early but
    // no hoisted instruction may raise on the zero-trip entry.
    S += std::string("kW <- function(g, x, k) {\n  s <- 0L\n"
                     "  while (k > 0L) { s <- s ") +
         addSub() + " g(x)\n    k <- k - 1L }\n  s\n}\n";
    // kZ: a faulting invariant subexpression (integer %%) in a while
    // body; the zero-divisor call below only ever runs zero-trip, so any
    // speculative hoist of the %% turns a silent loop-skip into an error.
    S += "kZ <- function(a, b, k) {\n  s <- 0L\n"
         "  while (k > 0L) { s <- s + (a %% b)\n    k <- k - 1L }\n"
         "  s\n}\n";
    // kG: a closure factory driven in a loop — every mk(i) call binds a
    // fresh closure in its own call environment and the closure captures
    // that environment, so each iteration strands one Env<->closure
    // reference cycle that refcounting alone can never free. This is the
    // heap cycle collector's corpus shape: with GC on, collection at the
    // dispatch-boundary safepoint must keep live bytes bounded without
    // perturbing a single transcript byte.
    S += std::string("kG <- function(a, n) {\n"
                     "  mk <- function(i) {\n"
                     "    h <- function(x) x ") +
         addSub() + " (a " + arith() + " i)\n    h(i)\n  }\n" +
         "  s <- 0L\n  for (i in 1:n) s <- s " + addSub() +
         " mk(i)\n  s\n}\n";
    // Data: int/real vectors and lists for the two phases.
    int M = 4 + static_cast<int>(R.below(5));
    S += "m <- " + std::to_string(M) + "L\n";
    S += "vi <- 1:m\nvr <- as.numeric(1:m)\n";
    std::string Li = "li <- list(", Lr = "lr <- list(";
    for (int K = 0; K < M; ++K) {
      if (K) {
        Li += ", ";
        Lr += ", ";
      }
      Li += intLit();
      Lr += realLit();
    }
    S += Li + ")\n" + Lr + ")\n";
    return S;
  }

  std::vector<std::string> driverLines() {
    std::vector<std::string> Lines;
    int N = 10 + static_cast<int>(R.below(5));
    for (int K = 0; K < N; ++K) {
      int Phase = K >= N / 2; // type switch halfway through
      switch (R.below(13)) {
      case 0:
        Lines.push_back("kA(" + scalar(Phase) + ", " + scalar(Phase) + ")");
        break;
      case 1:
        Lines.push_back("kB(" + scalar(Phase) + ", " + scalar(Phase) + ")");
        break;
      case 2:
        Lines.push_back(std::string("kC(") + (Phase ? "vr" : "vi") +
                        ", m)");
        break;
      case 3:
        Lines.push_back(std::string("kD(") + (Phase ? "lr" : "li") + ", " +
                        std::to_string(1 + R.below(4)) + "L)");
        break;
      case 4:
        Lines.push_back("kE(kF, " + scalar(Phase) + ")");
        break;
      case 5:
        Lines.push_back("kR(" + std::to_string(2 + R.below(5)) + "L)");
        break;
      case 6:
        Lines.push_back("kH(kF, " + scalar(Phase) + ", m)");
        break;
      case 7:
        Lines.push_back("kP(kF, " + scalar(Phase) + ")");
        break;
      case 8:
        Lines.push_back(std::string("kN(") + (Phase ? "vr" : "vi") +
                        ", m, " + scalar(Phase) + ")");
        break;
      case 9:
        // Trip count 0..3: the zero-trip case is the one a speculative
        // hoist gets wrong.
        Lines.push_back("kW(kF, " + scalar(Phase) + ", " +
                        std::to_string(R.below(4)) + "L)");
        break;
      case 10:
        // Alternate a running %% with a zero-divisor zero-trip call: the
        // latter must stay a silent 0L in every configuration.
        if (R.below(2))
          Lines.push_back("kZ(" + intLit() + ", " + intLit() + ", " +
                          std::to_string(1 + R.below(3)) + "L)");
        else
          Lines.push_back("kZ(" + intLit() + ", 0L, 0L)");
        break;
      case 11:
        // One stranded Env<->closure cycle per inner mk() call: heap
        // pressure for the HeapGc axis.
        Lines.push_back("kG(" + scalar(Phase) + ", m)");
        break;
      default:
        Lines.push_back("kA(kB(" + scalar(Phase) + ", " + scalar(Phase) +
                        "), " + scalar(Phase) + ")");
        break;
      }
    }
    return Lines;
  }
};

/// Counters accumulated across every fuzz configuration run; the coverage
/// test at the end asserts the sweep exercised the paths that matter.
constexpr unsigned FuzzShards = 10;
constexpr unsigned ProgramsPerShard = 50;
constexpr unsigned TotalFuzzPrograms = FuzzShards * ProgramsPerShard;

// Relaxed counters, defensively: only the synchronous single-threaded
// sweep absorbs into these (the concurrent mode deliberately stays out,
// see runProgramPlain), but a future test touching them off-thread must
// not become a silent data race.
struct FuzzCoverage {
  VmStats Sum; ///< stats() summed over every run
  RelaxedCounter Programs;
};

FuzzCoverage &fuzzCoverage() {
  static FuzzCoverage C;
  return C;
}

void absorbStats() { fuzzCoverage().Sum += stats(); }

std::string driversOf(const GenProg &P) {
  std::string S;
  for (const std::string &D : P.Drivers)
    S += D + "\n";
  return S;
}

/// Runs the program under one configuration and returns the transcript.
std::string runProgram(const GenProg &P, Vm::Config C) {
  Vm V(C);
  V.eval(P.Setup);
  std::string Out;
  for (const std::string &D : P.Drivers)
    Out += V.eval(D).show() + "\n";
  expectDeoptCausesAddUp(C);
  absorbStats();
  return Out;
}

class DiffFuzz : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(DiffFuzz, AllConfigurationsAgree) {
  for (unsigned K = 0; K < ProgramsPerShard; ++K) {
    uint64_t Seed =
        static_cast<uint64_t>(GetParam()) * 10007 + K * 131 + 17;
    ProgramGen G(Seed);
    GenProg P = G.generate();
    ++fuzzCoverage().Programs;

    std::string Base = runProgram(P, cfg(TierStrategy::BaselineOnly));
    for (TierStrategy S : {TierStrategy::Normal, TierStrategy::Deoptless,
                           TierStrategy::ProfileDrivenReopt})
      for (bool Ctx : {false, true})
        for (bool Inl : {false, true})
          for (bool Loop : {false, true})
            for (bool Native : nativeAxis()) {
              Vm::Config C = cfg(S, Ctx, Inl);
              C.LoopOpts = Loop;
              C.NativeTier = Native;
              ASSERT_EQ(Base, runProgram(P, C))
                  << "seed " << Seed << " strategy "
                  << static_cast<int>(S) << " ctx=" << Ctx
                  << " inl=" << Inl << " loop=" << Loop
                  << " native=" << Native << "\nprogram:\n"
                  << P.Setup << "drivers:\n" << driversOf(P);
            }

    // The native-v2 axis: register allocation off and on must produce
    // the byte-identical transcript — it is a pure strength reduction
    // with no observable semantics of its own. Strategy alternates with
    // (program, setting) so each setting runs under both Normal and
    // Deoptless across the corpus.
    if (nativeBackendSupported())
      for (unsigned Regalloc = 0; Regalloc < 2; ++Regalloc) {
        Vm::Config C = cfg((K + Regalloc) % 2 ? TierStrategy::Deoptless
                                              : TierStrategy::Normal);
        C.NativeTier = true;
        C.NativeV2.Regalloc = Regalloc != 0;
        ASSERT_EQ(Base, runProgram(P, C))
            << "seed " << Seed << " native-v2 regalloc=" << Regalloc
            << "\nprogram:\n"
            << P.Setup << "drivers:\n" << driversOf(P);
      }

    // Random invalidation on top of inlining: injected guard failures
    // land inside spliced callees too, forcing the multi-frame OSR-out
    // and deoptless-continuation paths without changing any result. The
    // native axis drives them through the template JIT's side-exit
    // stubs and countdown slow path. The safepoint axis runs the same
    // retire-heavy workload with graveyard reclamation at every dispatch
    // and with reclamation off entirely: transcripts must be
    // byte-identical — reclaiming retired code frees memory but may
    // never change dispatch or results. The HeapGc axis rides the
    // safepoint one (rather than doubling the sanitizer-heavy sweep):
    // reclamation on pairs with a hair-trigger cycle collector (4 KiB
    // threshold, firing constantly over the kG corpus), reclamation off
    // with no mid-run collection at all — and the main sweep above runs
    // the default-threshold collector — so all three GC cadences must
    // agree byte for byte.
    for (TierStrategy S : {TierStrategy::Normal, TierStrategy::Deoptless})
      for (bool Native : nativeAxis())
        for (bool Reclaim : {true, false}) {
          Vm::Config C = cfg(S, /*CtxDispatch=*/true, /*Inlining=*/true);
          C.InvalidationRate = 60 + (Seed % 90);
          C.InvalidationSeed = Seed | 1;
          C.NativeTier = Native;
          C.ReclaimAtSafepoints = Reclaim;
          C.HeapGc.Enabled = Reclaim;
          C.HeapGc.ThresholdBytes = 4 * 1024;
          ASSERT_EQ(Base, runProgram(P, C))
              << "seed " << Seed << " injected strategy "
              << static_cast<int>(S) << " native=" << Native
              << " reclaim=" << Reclaim
              << " gc=" << C.HeapGc.Enabled << "\nprogram:\n"
              << P.Setup << "drivers:\n" << driversOf(P);
        }
  }
}

// 10 shards x 50 programs = 500 random programs, each checked under 29
// configurations (59 when the native axis is available, including the
// native-v2 regalloc axis; shards parallelize under `ctest -j`).
INSTANTIATE_TEST_SUITE_P(Shards, DiffFuzz,
                         ::testing::Range(0, static_cast<int>(FuzzShards)));

//===----------------------------------------------------------------------===//
// Concurrent differential fuzzer: background compilation under executor
// parallelism

namespace {

/// Executor threads per shard (the acceptance bar is >= 4 across the
/// concurrent sweep; every shard runs this many).
constexpr unsigned ConcurrentExecutors = 4;

/// Like runProgram, but without absorbStats(): fuzzCoverage measures the
/// synchronous sweep alone, so the coverage test cannot be satisfied by
/// the concurrent sweep's runs.
std::string runProgramPlain(const GenProg &P, Vm::Config C) {
  Vm V(C);
  V.eval(P.Setup);
  std::string Out;
  for (const std::string &D : P.Drivers)
    Out += V.eval(D).show() + "\n";
  return Out;
}

/// Runs a program under \p C with drain barriers at the phase changes
/// (after setup, at the round boundary where the generator switches
/// types, and at the end) and returns the transcript. The barriers pin
/// down *which* compiles have landed at each phase edge; the transcript
/// itself must be tier-independent regardless.
std::string runProgramBackground(const GenProg &P, Vm::Config C) {
  Vm V(C);
  V.eval(P.Setup);
  V.drainCompiles();
  std::string Out;
  size_t Half = P.Drivers.size() / 2;
  for (size_t K = 0; K < P.Drivers.size(); ++K) {
    if (K == Half)
      V.drainCompiles();
    Out += V.eval(P.Drivers[K]).show() + "\n";
  }
  V.drainCompiles();
  expectDeoptCausesAddUp(C);
  return Out;
}

class ConcurrentDiffFuzz : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(ConcurrentDiffFuzz, BackgroundTranscriptsMatchSyncBaseline) {
  // One shared compiler pool; ConcurrentExecutors executor threads each
  // drive their own Vms over a slice of the shard's programs. Every
  // bg-mode transcript must equal the thread's own single-threaded
  // synchronous baseline byte for byte.
  CompilerPool Pool(/*Threads=*/2);
  std::mutex FailuresMu;
  std::vector<std::string> Failures;

  auto Executor = [&](unsigned Tid) {
    for (unsigned K = Tid; K < ProgramsPerShard;
         K += ConcurrentExecutors) {
      uint64_t Seed =
          static_cast<uint64_t>(GetParam()) * 10007 + K * 131 + 17;
      ProgramGen G(Seed);
      GenProg P = G.generate();

      // The synchronous reference, computed on this thread (BaselineOnly
      // never compiles, so the shared pool stays out of it).
      std::string Base =
          runProgramPlain(P, cfg(TierStrategy::BaselineOnly));

      for (TierStrategy S :
           {TierStrategy::Normal, TierStrategy::Deoptless}) {
        Vm::Config C = cfg(S, /*CtxDispatch=*/true, /*Inlining=*/true);
        C.BackgroundCompile = true;
        C.Pool = &Pool;
        // LoopOpts axis, alternated per (program, strategy) so both
        // settings race the shared pool across the corpus without
        // doubling the TSan-heavy concurrent sweep.
        C.LoopOpts =
            ((K + (S == TierStrategy::Deoptless ? 1 : 0)) % 2) == 0;
        // NativeTier alternated at half the rate: over K mod 4 every
        // (loop, native) combination races the shared pool — compiler
        // threads emit and seal W^X pages while executors run previously
        // published native code.
        C.NativeTier =
            nativeBackendSupported() &&
            (((K >> 1) + (S == TierStrategy::Deoptless ? 1 : 0)) % 2) ==
                0;
        // Native-v2 setting from the program index: over K mod 4 every
        // (native, regalloc) combination races the shared pool.
        C.NativeV2.Regalloc = (K & 1) != 0;
        // Event tracing on half the corpus: executor threads record into
        // per-thread rings while compiler threads trace job/publish
        // events — the tracer itself races the sweep under TSan. Small
        // rings keep the sweep's memory bounded; overflow is the
        // drop-counting path, which is exactly what should be exercised.
        // RJIT_TRACE=1 (the CI tsan job's explicit fuzzer step) upgrades
        // to tracing the whole corpus.
        C.Trace.Enabled = obs::traceEnabledDefault() || (K % 2) == 0;
        C.Trace.BufferCapacity = 1024;
        // HeapGc axis at a quarter rate (over K mod 8 every combination
        // with loop/native races the pool): a hair-trigger cycle
        // collector runs at this executor's safepoints while compiler
        // threads hold code constants — those must be pinned, never
        // swept. With it off, teardown's final pass must still leave the
        // leak-checked concurrent sweep clean.
        C.HeapGc.Enabled =
            (((K >> 2) + (S == TierStrategy::Deoptless ? 1 : 0)) % 2) ==
            0;
        C.HeapGc.ThresholdBytes = 4 * 1024;
        std::string Got = runProgramBackground(P, C);
        if (Got != Base) {
          std::lock_guard<std::mutex> L(FailuresMu);
          Failures.push_back(
              "seed " + std::to_string(Seed) + " strategy " +
              std::to_string(static_cast<int>(S)) + " tid " +
              std::to_string(Tid) + "\nprogram:\n" + P.Setup +
              "drivers:\n" + driversOf(P) + "expected:\n" + Base +
              "got:\n" + Got);
        }
      }
    }
  };

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < ConcurrentExecutors; ++T)
    Threads.emplace_back(Executor, T);
  for (std::thread &T : Threads)
    T.join();

  for (const std::string &F : Failures)
    ADD_FAILURE() << F;
}

// The same 10 x 50 = 500 programs as the synchronous sweep, now with 4
// executor threads per shard racing one shared compiler pool.
INSTANTIATE_TEST_SUITE_P(Shards, ConcurrentDiffFuzz,
                         ::testing::Range(0,
                                          static_cast<int>(FuzzShards)));

namespace {

/// Runs after every test (gtest environments tear down last, and
/// value-parameterized suites are registered after plain TESTs, so a
/// plain TEST cannot see the shards' accumulated counters): when at least
/// one whole shard ran — ctest runs each shard as an entry of its own —
/// the sweep must have exercised the paths speculative inlining
/// introduces — multi-frame OSR-out, deoptless continuations keyed on
/// inlined frames — plus the reopt and context-dispatch axes.
class FuzzCoverageCheck : public ::testing::Environment {
public:
  void TearDown() override {
    if (fuzzCoverage().Programs < ProgramsPerShard)
      return; // no whole shard ran: too few programs to judge coverage
    const VmStats &C = fuzzCoverage().Sum;
    EXPECT_GT(C.InlinedCalls, 0u) << "no program inlined anything";
    EXPECT_GT(C.MultiFrameDeopts, 0u)
        << "no OSR-out ever crossed an inlined frame";
    EXPECT_GE(C.InlineFramesMaterialized, 2 * C.MultiFrameDeopts)
        << "multi-frame deopts must synthesize at least two frames each";
    EXPECT_GT(C.DeoptlessInlineDispatches, 0u)
        << "no deoptless continuation was keyed on an inlined frame";
    EXPECT_GT(C.DeoptlessCompiles, 0u);
    EXPECT_GT(C.Deopts, 0u);
    EXPECT_GT(C.Reoptimizations, 0u)
        << "the ProfileDrivenReopt axis never recompiled";
    EXPECT_GT(C.CtxDispatchHits, 0u)
        << "the ContextDispatch axis never dispatched a specialized "
           "version";
    EXPECT_GT(C.HoistedGuards, 0u)
        << "the loop layer never hoisted a guard — the kH corpus shape "
           "must exercise invariant-guard hoisting";
    EXPECT_GT(C.HoistedInstrs, 0u)
        << "LICM never moved an instruction — the kN corpus shape must "
           "exercise invariant subexpressions";
    EXPECT_GT(C.EliminatedGuards, 0u)
        << "redundant-guard elimination never fired — the kP corpus "
           "shape must produce dominated duplicate guards";
    EXPECT_GT(C.PeeledLoops, 0u)
        << "no loop was peeled — the kI corpus shape must warm an "
           "int-initialized accumulator on doubles";
    EXPECT_GT(C.BuiltinRebinds, 0u)
        << "no builtin binding was overwritten — the kU corpus shape "
           "must rebind abs";
    EXPECT_GT(C.DeoptlessSkipBuiltin, 0u)
        << "no epoch check failed under Deoptless — kU's mid-loop <<- "
           "must fail one in its folding caller";
    if (nativeBackendSupported()) {
      EXPECT_GT(C.NativeCompiles, 0u)
          << "the NativeTier axis never produced template-JIT code";
      EXPECT_GT(C.NativeEnters, 0u)
          << "the NativeTier axis never entered native code — the "
             "sweep's transcripts did not actually cover the JIT";
    }
    EXPECT_GT(C.GcCollections, 0u)
        << "the HeapGc axis never collected — the kG corpus shape must "
           "trip the safepoint's allocation threshold";
    EXPECT_GT(C.GcFreedBytes, 0u)
        << "collections fired but never reclaimed a cycle — the kG "
           "corpus shape must strand Env<->closure garbage";
  }
};

const ::testing::Environment *const FuzzCoverageEnv =
    ::testing::AddGlobalTestEnvironment(new FuzzCoverageCheck);

} // namespace

TEST(DiffFuzzVolume, AtLeast500Programs) {
  EXPECT_GE(TotalFuzzPrograms, 500u) << "fuzz volume regressed";
}

TEST(DiffFuzzHeap, CycleCorpusLiveBytesPlateau) {
  // The cycle-heavy corpus with GC on: re-running a program's drivers
  // strands more Env<->closure garbage every pass, and the hair-trigger
  // collector must hold live bytes at a plateau — growth bounded by
  // slack, not by the churn volume. Teardown then returns the process
  // gauge exactly to its pre-Vm level (the leak-checked CI bar).
  uint64_t Outside = heapStats().LiveBytes.load();
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    ProgramGen G(Seed * 977 + 5);
    GenProg P = G.generate();
    Vm::Config C = cfg(TierStrategy::Deoptless, /*CtxDispatch=*/true,
                       /*Inlining=*/true);
    C.HeapGc.ThresholdBytes = 4 * 1024;
    {
      Vm V(C);
      V.eval(P.Setup);
      auto RunAll = [&] {
        for (const std::string &D : P.Drivers)
          V.eval(D);
        // Guaranteed cycle churn even when this seed's driver mix never
        // rolled the kG case.
        V.eval("kG(2L, m)");
      };
      RunAll();
      V.collectHeap();
      uint64_t Plateau = heapStats().LiveBytes.load();
      for (int K = 0; K < 5; ++K)
        RunAll();
      V.collectHeap();
      EXPECT_LE(heapStats().LiveBytes.load(), Plateau + 4 * 1024)
          << "live bytes grew with churn (seed " << Seed << ")";
      expectDeoptCausesAddUp(C);
    }
    EXPECT_EQ(heapStats().LiveBytes.load(), Outside)
        << "Vm teardown leaked (seed " << Seed << ")";
  }
}
