//===-- native/regalloc.cpp - Linear-scan raw-slot allocator --------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "native/regalloc.h"
#include "lowcode/lowcode.h"

#include <algorithm>

using namespace rjit;

namespace {

/// One raw slot's aggregated usage. First/Last bound the textual live
/// range (diagnostic/determinism anchor); Weight is what assignment
/// ranks by.
struct SlotUse {
  int32_t First = -1;
  int32_t Last = -1;
  uint64_t Weight = 0;
};

void count(SlotUse &U, int32_t Pc, uint64_t W) {
  if (U.First < 0)
    U.First = Pc;
  U.Last = Pc;
  U.Weight += W;
}

/// True when the stitcher compiles \p I inline with no main-path helper
/// call and no boxed-slot write: the one statement of which ops those are.
/// It gates vector pins: a pinned interval must consist solely of such
/// ops, because helpers clobber caller-saved pin registers and a boxed
/// write could replace the pinned vector. Stub slow paths (guard ticks,
/// extract misses) are fine: the stitcher re-hoists every covering pin
/// after them. It also gates use weights: only inline ops gain from a
/// register home.
bool pinSafeOp(const LowInstr &I) {
  switch (I.Op) {
  case LowOp::LoadConst:
  case LowOp::Move:
    return static_cast<SlotClass>(I.B) != SlotClass::Boxed;
  case LowOp::Unbox:
    return true;
  case LowOp::Coerce:
    return coerceSrcClass(I) != SlotClass::Boxed &&
           static_cast<SlotClass>(I.B) != SlotClass::Boxed;
  case LowOp::ArithTyped:
    // Compares excluded: they write a boxed Lgl. Rank-1 %% and %/%, like
    // LengthLow, run inline with a stub but earn no use weight here
    // either (ROADMAP item 5).
    return inlinedArith(arithOp(I), arithRank(I));
  case LowOp::Extract2Typed:
    return kindClass(elemKind(I)) != SlotClass::Boxed;
  case LowOp::CmpBranch:
    return rankClass(arithRank(I)) != SlotClass::Boxed;
  case LowOp::GuardCond:
  case LowOp::EpochCheck:
  case LowOp::JumpLow:
    return true;
  default:
    return false;
  }
}

/// One pinnable (vector slot, loop interval) pair before assignment.
struct PinCand {
  uint64_t Weight = 0;
  uint16_t VecSlot = 0;
  uint8_t ElemTag = 0;
  int32_t H = 0, B = 0;
  bool Bad = false; ///< same slot extracted at conflicting element tags
};

} // namespace

IntConstMap rjit::intConstSlots(const LowFunction &F) {
  IntConstMap M;
  M.Known.assign(F.NumSlotsI, 0);
  M.Val.assign(F.NumSlotsI, 0);
  if (F.NumSlotsI == 0)
    return M;

  // The single def must execute before any control flow so it dominates
  // every use: entry runs the pre-branch prefix unconditionally, and no
  // later pc can be reached without crossing it.
  int32_t FirstBranch = static_cast<int32_t>(F.Code.size());
  for (int32_t Pc = 0; Pc < FirstBranch; ++Pc)
    if (isBranch(F.Code[Pc].Op)) {
      FirstBranch = Pc;
      break;
    }

  std::vector<uint8_t> Defs(F.NumSlotsI, 0);
  for (int32_t Pc = 0; Pc < static_cast<int32_t>(F.Code.size()); ++Pc) {
    const LowInstr &I = F.Code[Pc];
    forEachDef(I, [&](LiveRef R) {
      if (R.K != SlotClass::RawInt || R.Slot >= F.NumSlotsI)
        return;
      if (Defs[R.Slot] < 2)
        ++Defs[R.Slot];
      if (I.Op == LowOp::LoadConst && Pc < FirstBranch) {
        M.Known[R.Slot] = 1;
        M.Val[R.Slot] = F.Consts[static_cast<size_t>(I.Imm)].asIntUnchecked();
      }
    });
  }
  // Parameter stores at entry are defs too.
  for (size_t K = 0; K < F.ParamSlots.size(); ++K)
    if (F.ParamClasses[K] == SlotClass::RawInt &&
        F.ParamSlots[K] < F.NumSlotsI)
      Defs[F.ParamSlots[K]] = 2;
  for (uint32_t S = 0; S < F.NumSlotsI; ++S)
    if (Defs[S] != 1)
      M.Known[S] = 0;
  return M;
}

RegAllocation rjit::allocateRegisters(const LowFunction &F,
                                      bool AllowPins) {
  RegAllocation RA;
  RA.IntHome.assign(F.NumSlotsI, -1);
  RA.RealHome.assign(F.NumSlotsD, -1);

  const int32_t N = static_cast<int32_t>(F.Code.size());

  // Backedge-interval loop-depth approximation: every branch src -> dst
  // with dst <= src deepens [dst, src]. No dominator analysis needed —
  // weights steer assignment, they do not gate soundness.
  std::vector<uint32_t> Depth(static_cast<size_t>(N), 0);
  for (int32_t Pc = 0; Pc < N; ++Pc) {
    const LowInstr &I = F.Code[Pc];
    if (!isBranch(I.Op) || I.Imm < 0 || I.Imm > Pc)
      continue;
    for (int32_t P = I.Imm; P <= Pc; ++P)
      ++Depth[static_cast<size_t>(P)];
  }

  // Vector-pin discovery: a backedge interval whose every op the stitcher
  // compiles inline admits entry only at its header (verified below), so
  // a typed extract's vector operand — a boxed slot nothing in the
  // interval can write — keeps its identity across iterations. Its tag
  // check and data pointer then hoist to the header and the extract
  // collapses to a bounds check plus one indexed load.
  std::vector<PinCand> PinCands;
  if (AllowPins) {
    std::vector<std::pair<int32_t, int32_t>> Intervals;
    for (int32_t Pc = 0; Pc < N; ++Pc) {
      const LowInstr &I = F.Code[Pc];
      if (!isBranch(I.Op) || I.Imm < 0 || I.Imm > Pc)
        continue;
      std::pair<int32_t, int32_t> Iv{I.Imm, Pc};
      if (std::find(Intervals.begin(), Intervals.end(), Iv) ==
          Intervals.end())
        Intervals.push_back(Iv);
    }
    for (const auto &[H, B] : Intervals) {
      bool Ok = true;
      for (int32_t P = H; P <= B && Ok; ++P)
        Ok = pinSafeOp(F.Code[P]);
      // Entry by fallthrough into H only: no branch outside [H, B] may
      // target any pc inside it (the header included — its label binds
      // after the hoist code, so a jump to H would skip the hoist).
      for (int32_t P = 0; P < N && Ok; ++P) {
        const LowInstr &I = F.Code[P];
        if (P >= H && P <= B)
          continue;
        if (isBranch(I.Op) && I.Imm >= H && I.Imm <= B)
          Ok = false;
      }
      if (!Ok)
        continue;
      for (int32_t P = H; P <= B; ++P) {
        const LowInstr &I = F.Code[P];
        if (I.Op != LowOp::Extract2Typed ||
            kindClass(elemKind(I)) == SlotClass::Boxed)
          continue;
        Tag K = elemKind(I);
        uint64_t W = 6; // a pin saves several instructions per extract
        for (uint32_t D = Depth[static_cast<size_t>(P)];
             D > 0 && W < 6000000; --D)
          W *= 10;
        auto It = std::find_if(PinCands.begin(), PinCands.end(),
                               [&](const PinCand &C) {
                                 return C.VecSlot == I.A && C.H == H &&
                                        C.B == B;
                               });
        if (It == PinCands.end()) {
          PinCands.push_back(
              {W, I.A, static_cast<uint8_t>(K), H, B, false});
        } else {
          It->Weight += W;
          if (It->ElemTag != static_cast<uint8_t>(K))
            It->Bad = true;
        }
      }
    }
    // One pin per vector slot: overlapping (nested) intervals would
    // otherwise pin the same slot twice. Keep the heaviest candidate.
    std::sort(PinCands.begin(), PinCands.end(),
              [](const PinCand &X, const PinCand &Y) {
                if (X.VecSlot != Y.VecSlot)
                  return X.VecSlot < Y.VecSlot;
                if (X.Weight != Y.Weight)
                  return X.Weight > Y.Weight;
                return X.H < Y.H;
              });
    PinCands.erase(
        std::unique(PinCands.begin(), PinCands.end(),
                    [](const PinCand &X, const PinCand &Y) {
                      return X.VecSlot == Y.VecSlot;
                    }),
        PinCands.end());
    PinCands.erase(std::remove_if(PinCands.begin(), PinCands.end(),
                                  [](const PinCand &C) { return C.Bad; }),
                   PinCands.end());
  }

  // Known-constant int slots fold to immediates in the stitcher — they
  // need no home, so they do not compete for the GPR pool.
  IntConstMap IC = intConstSlots(F);

  std::vector<SlotUse> IntUse(F.NumSlotsI), RealUse(F.NumSlotsD);
  auto useInt = [&](uint16_t Slot, int32_t Pc, uint64_t W) {
    if (Slot < IntUse.size() && !IC.known(Slot))
      count(IntUse[Slot], Pc, W);
  };
  auto useReal = [&](uint16_t Slot, int32_t Pc, uint64_t W) {
    if (Slot < RealUse.size())
      count(RealUse[Slot], Pc, W);
  };

  // Count every raw operand of an op the stitcher compiles inline: that
  // is where a register home saves a load/store. Helper-executed ops read
  // and write the arrays directly (homes are flushed around them), so
  // their slots gain nothing from a register.
  for (int32_t Pc = 0; Pc < N; ++Pc) {
    const LowInstr &I = F.Code[Pc];
    if (!pinSafeOp(I))
      continue;
    uint64_t W = 1;
    for (uint32_t D = Depth[static_cast<size_t>(Pc)];
         D > 0 && W < 1000000; --D)
      W *= 10;
    auto Count = [&](LiveRef R) {
      if (R.K == SlotClass::RawInt)
        useInt(R.Slot, Pc, W);
      else if (R.K == SlotClass::RawReal)
        useReal(R.Slot, Pc, W);
    };
    forEachUse(I, Count);
    forEachDef(I, Count);
  }

  // Linear-scan assignment: rank candidates by weight (descending), tie-
  // broken by class then slot index for full determinism, and hand out
  // pool registers until each class pool runs dry. Vector pins compete
  // with int homes for the GPR pool on equal terms — a pin's weight
  // already carries its larger per-use saving.
  struct Cand {
    uint64_t Weight;
    uint8_t Class; ///< 0 = int, 1 = real, 2 = vector pin
    uint16_t Slot;
    uint16_t PinIdx = 0;
  };
  std::vector<Cand> Cands;
  for (uint16_t S = 0; S < IntUse.size(); ++S)
    if (IntUse[S].Weight)
      Cands.push_back({IntUse[S].Weight, 0, S, 0});
  for (uint16_t S = 0; S < RealUse.size(); ++S)
    if (RealUse[S].Weight)
      Cands.push_back({RealUse[S].Weight, 1, S, 0});
  for (uint16_t K = 0; K < PinCands.size(); ++K)
    Cands.push_back({PinCands[K].Weight, 2, PinCands[K].VecSlot, K});
  std::sort(Cands.begin(), Cands.end(), [](const Cand &X, const Cand &Y) {
    if (X.Weight != Y.Weight)
      return X.Weight > Y.Weight;
    if (X.Class != Y.Class)
      return X.Class < Y.Class;
    return X.Slot < Y.Slot;
  });

  std::vector<uint8_t> Gprs(NatGprPool, NatGprPool + NatGprPoolSize);
  size_t NextXmm = 0;
  for (const Cand &C : Cands) {
    if (C.Class == 0) {
      if (!Gprs.empty()) {
        uint8_t R = Gprs.front();
        Gprs.erase(Gprs.begin());
        RA.IntHome[C.Slot] = static_cast<int16_t>(R);
        if (R == RBP)
          RA.UsesRbp = true;
      } else {
        ++RA.Spills;
      }
    } else if (C.Class == 1) {
      if (NextXmm < NatXmmPoolSize) {
        RA.RealHome[C.Slot] =
            static_cast<int16_t>(NatXmmFirst + NextXmm++);
      } else {
        ++RA.Spills;
      }
    } else {
      // The SIB indexed load cannot encode rbp as a base register, so a
      // pin takes the first non-rbp pool register still free.
      auto It = std::find_if(Gprs.begin(), Gprs.end(),
                             [](uint8_t R) { return R != RBP; });
      if (It != Gprs.end() && RA.Pins.size() < NatMaxPins) {
        const PinCand &P = PinCands[C.PinIdx];
        RA.Pins.push_back({P.VecSlot, P.ElemTag, *It,
                           static_cast<uint8_t>(RA.Pins.size()), P.H,
                           P.B});
        Gprs.erase(It);
      } else {
        ++RA.Spills;
      }
    }
  }
  return RA;
}
