//===-- tests/inline_test.cpp - Speculative inlining & multi-frame deopt ---===//
//
// The tentpole invariants of speculative inlining: monomorphic hot callees
// are spliced into their caller, guards inside the spliced body carry
// frame-state chains, OSR-out materializes every synthesized frame, and
// the deoptless runtime keys its continuation table on the innermost
// inlined frame — with the caller still observing the right value in all
// cases. Plus the bailout conditions: depth/size limits, polymorphic call
// sites, environment-dependent callees, and exact seed parity with the
// knob off.
//
//===----------------------------------------------------------------------===//

#include "opt/inline.h"
#include "support/stats.h"
#include "vm/vm.h"

#include <gtest/gtest.h>

using namespace rjit;

namespace {

Vm::Config cfg(TierStrategy S, bool Inlining) {
  Vm::Config C;
  C.Strategy = S;
  C.CompileThreshold = 2;
  C.Inlining = Inlining;
  return C;
}

/// Evaluates Setup once and every driver line in order; returns the
/// rendered value of each line (the cross-tier comparison transcript).
std::string transcript(Vm &V, const std::string &Setup,
                       const std::vector<std::string> &Drivers) {
  V.eval(Setup);
  std::string Out;
  for (const std::string &D : Drivers)
    Out += V.eval(D).show() + "\n";
  return Out;
}

std::string baselineTranscript(const std::string &Setup,
                               const std::vector<std::string> &Drivers) {
  Vm V(cfg(TierStrategy::BaselineOnly, false));
  return transcript(V, Setup, Drivers);
}

/// A caller/callee pair where the failing guard sits *inside* the inlined
/// callee: `second`'s addition speculates on the list elements' tags (the
/// caller never guards the list itself — List is not an entry-guardable
/// tag), so switching the element type fails a guard whose frame chain
/// spans both functions.
const char *MultiFrameSetup = R"(
second <- function(l, i) l[[i]] + l[[i]]
use <- function(l, i) second(l, i) * 2L
ints <- list(1L, 2L, 3L)
reals <- list(1.5, 2.5, 3.5)
)";

} // namespace

TEST(Inline, SplicesMonomorphicCallee) {
  Vm V(cfg(TierStrategy::Normal, true));
  V.eval("add1 <- function(x) x + 1L\n"
         "twice <- function(a) add1(a) * 2L");
  for (int K = 0; K < 4; ++K)
    EXPECT_EQ(V.eval("twice(3L)").show(), "8L");
  EXPECT_GE(stats().InlinedCalls, 1u) << "monomorphic callee not inlined";
  EXPECT_EQ(V.eval("twice(10L)").show(), "22L");
}

TEST(Inline, MultiFrameDeoptMaterializesBothFrames) {
  std::vector<std::string> Warm(6, "use(ints, 2L)");
  std::vector<std::string> Drivers = Warm;
  Drivers.push_back("use(reals, 2L)"); // guard fails inside `second`
  Drivers.push_back("use(reals, 3L)");
  std::string Base = baselineTranscript(MultiFrameSetup, Drivers);

  Vm V(cfg(TierStrategy::Normal, true));
  EXPECT_EQ(transcript(V, MultiFrameSetup, Drivers), Base);
  EXPECT_GE(stats().InlinedCalls, 1u);
  EXPECT_GE(stats().MultiFrameDeopts, 1u)
      << "the failing guard should OSR-out through the inlined frame";
  EXPECT_GE(stats().InlineFramesMaterialized, 2u)
      << "both the callee and the caller frame must be synthesized";
}

TEST(Inline, DeoptlessKeysOnInnermostInlinedFrame) {
  std::vector<std::string> Drivers(6, "use(ints, 2L)");
  for (int K = 0; K < 4; ++K)
    Drivers.push_back("use(reals, 2L)");
  std::string Base = baselineTranscript(MultiFrameSetup, Drivers);

  Vm V(cfg(TierStrategy::Deoptless, true));
  EXPECT_EQ(transcript(V, MultiFrameSetup, Drivers), Base);
  EXPECT_GE(stats().InlinedCalls, 1u);
  EXPECT_GE(stats().DeoptlessInlineDispatches, 1u)
      << "guards inside the inlined callee should dispatch deoptless";
  EXPECT_GE(stats().DeoptlessCompiles, 1u);
  EXPECT_GE(stats().DeoptlessHits, 1u)
      << "repeated failures must hit the continuation compiled for the "
         "innermost frame";
}

TEST(Inline, HigherOrderChainsRespectDepthLimit) {
  // A call chain one level deeper than MaxInlineDepth: compiling top
  // splices apply1 and apply2 (MaxInlineDepth levels), while the third
  // level, apply2's call of g = inc, stays a real call. Each level
  // receives the next one as an argument: a callee that reads a global
  // function is not inlinable at all.
  const char *Setup = "inc <- function(x) x + 1L\n"
                      "apply2 <- function(g, x) g(x) + 10L\n"
                      "apply1 <- function(f, g, x) f(g, x) + 100L\n"
                      "top <- function(x) apply1(apply2, inc, x) + 1000L";
  Vm::Config C = cfg(TierStrategy::Normal, true);
  C.CompileThreshold = 1000; // warm feedback in the baseline only
  Vm V(C);
  V.eval(Setup);
  for (int K = 0; K < 4; ++K)
    ASSERT_EQ(V.eval("top(5L)").show(), "1116L");
  uint64_t InlinedBefore = stats().InlinedCalls;
  ASSERT_NE(V.compileFunction(V.eval("top").closObj()->Fn), nullptr);
  EXPECT_EQ(stats().InlinedCalls - InlinedBefore, MaxInlineDepth)
      << "exactly MaxInlineDepth levels of the chain must splice";

  // A spliced level is never entered; only the chain's last level, one
  // deeper than the bound, still runs as a call.
  const char *Levels[] = {"apply1", "apply2", "inc"};
  uint64_t Before[3];
  for (int L = 0; L < 3; ++L)
    Before[L] = V.eval(Levels[L]).closObj()->Fn->CallCount;
  EXPECT_EQ(V.eval("top(5L)").show(), "1116L");
  for (int L = 0; L < 3; ++L) {
    bool Last = L == 2;
    uint64_t Calls = V.eval(Levels[L]).closObj()->Fn->CallCount - Before[L];
    EXPECT_EQ(Calls, Last ? 1u : 0u)
        << Levels[L] << " (level " << L + 1 << ") must "
        << (Last ? "stay a call" : "be spliced");
  }
}

TEST(Inline, SizeLimitBailsOut) {
  // Two straight-line callees on either side of MaxInlineSize: fits (11
  // statements) is within the bound and splices, big (12 statements) is
  // longer and must stay a call.
  auto Chain = [](const char *Name, int Stmts) {
    std::string F = std::string(Name) + " <- function(x) {\n";
    for (int K = 1; K <= Stmts; ++K)
      F += "  x <- x + " + std::to_string(K) + "L\n";
    return F + "  x\n}\n";
  };
  Vm V(cfg(TierStrategy::Normal, true));
  V.eval(Chain("fits", 11) + Chain("big", 12) +
         "drv <- function(x) big(x) + fits(x)");
  for (int K = 0; K < 5; ++K)
    ASSERT_EQ(V.eval("drv(1L)").show(), "146L");
  for (const char *Name : {"fits", "big"}) {
    bool Big = std::string(Name) == "big";
    Function *Fn = V.eval(Name).closObj()->Fn;
    uint64_t Before = Fn->CallCount;
    EXPECT_EQ(V.eval("drv(1L)").show(), "146L");
    EXPECT_EQ(Fn->CallCount - Before, Big ? 1u : 0u)
        << Name << " (" << Fn->BC.Instrs.size() << " bytecodes, bound "
        << MaxInlineSize << ") must " << (Big ? "stay a call" : "inline");
  }
  EXPECT_GT(stats().InlinedCalls, 0u);
}

TEST(Inline, PolymorphicCalleeBailsOut) {
  // The site is compiled while the profile still looks monomorphic, so
  // one speculative splice (under the callee-identity guard) is allowed;
  // the other callee then fails the guard, the site re-profiles as
  // megamorphic, and the recompile must stop inlining for good.
  Vm V(cfg(TierStrategy::Normal, true));
  V.eval("p1 <- function(x) x + 1L\n"
         "p2 <- function(x) x + 2L\n"
         "poly <- function(g, x) g(x)");
  for (int K = 0; K < 5; ++K) {
    EXPECT_EQ(V.eval("poly(p1, 1L)").show(), "2L");
    EXPECT_EQ(V.eval("poly(p2, 1L)").show(), "3L");
  }
  EXPECT_LE(stats().InlinedCalls, 1u)
      << "a megamorphic call site has no CallStatic to inline";
  uint64_t Settled = stats().InlinedCalls;
  for (int K = 0; K < 5; ++K) {
    EXPECT_EQ(V.eval("poly(p1, 1L)").show(), "2L");
    EXPECT_EQ(V.eval("poly(p2, 1L)").show(), "3L");
  }
  EXPECT_EQ(stats().InlinedCalls, Settled)
      << "once megamorphic, recompiles must not re-inline";
}

TEST(Inline, EnvDependentCalleeBailsOut) {
  // `leaky` reads the global `bias` — a free-variable read; splicing it
  // would resolve the read against the caller's lexical environment, so
  // the inliner must refuse.
  Vm V(cfg(TierStrategy::Normal, true));
  V.eval("bias <- 10L\n"
         "leaky <- function(x) x + bias\n"
         "drv <- function(x) leaky(x) * 2L");
  for (int K = 0; K < 5; ++K)
    EXPECT_EQ(V.eval("drv(1L)").show(), "22L");
  EXPECT_EQ(stats().InlinedCalls, 0u);
  V.eval("bias <- 100L");
  EXPECT_EQ(V.eval("drv(1L)").show(), "202L");
}

TEST(Inline, RecursiveCalleeStaysCorrect) {
  // Recursive functions read their own name as a free variable, so they
  // are never spliced — but callers with the knob on must stay correct.
  Vm V(cfg(TierStrategy::Normal, true));
  V.eval("fact <- function(n) if (n > 0L) n * fact(n - 1L) else 1L");
  for (int K = 0; K < 5; ++K)
    EXPECT_EQ(V.eval("fact(6L)").show(), "720L");
}

TEST(Inline, OffIsExactSeedParity) {
  // The acceptance bar: with Inlining off (the default), no inlining
  // machinery runs at all — no spliced calls, no multi-frame deopts, and
  // results identical to the inlining-on configuration.
  std::vector<std::string> Drivers(6, "use(ints, 2L)");
  Drivers.push_back("use(reals, 2L)");
  std::string Base = baselineTranscript(MultiFrameSetup, Drivers);

  Vm::Config Default;
  EXPECT_FALSE(Default.Inlining) << "inlining must default off";

  for (TierStrategy S : {TierStrategy::Normal, TierStrategy::Deoptless,
                         TierStrategy::ProfileDrivenReopt}) {
    Vm V(cfg(S, false));
    EXPECT_EQ(transcript(V, MultiFrameSetup, Drivers), Base);
    EXPECT_EQ(stats().InlinedCalls, 0u);
    EXPECT_EQ(stats().MultiFrameDeopts, 0u);
    EXPECT_EQ(stats().InlineFramesMaterialized, 0u);
    EXPECT_EQ(stats().DeoptlessInlineDispatches, 0u);
  }
}

TEST(Inline, ContextDispatchSeedsInlinedParams) {
  // With contextual dispatch on, the caller's context types its
  // parameters, which flow into the spliced callee as entry types.
  Vm::Config C = cfg(TierStrategy::Normal, true);
  C.ContextDispatch = true;
  Vm V(C);
  V.eval("mul <- function(a, b) a * b\n"
         "area <- function(w, h) mul(w, h) + 1L");
  for (int K = 0; K < 6; ++K)
    EXPECT_EQ(V.eval("area(3L, 4L)").show(), "13L");
  EXPECT_GE(stats().InlinedCalls, 1u);
  EXPECT_EQ(V.eval("area(2.5, 4.0)").show(), "11");
}
