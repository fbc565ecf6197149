//===-- opt/licm.cpp - Loop optimization layer ----------------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/licm.h"

#include "ir/cfg.h"

#include <map>
#include <tuple>

using namespace rjit;

namespace {

//===----------------------------------------------------------------------===//
// Redundant-guard elimination
//===----------------------------------------------------------------------===//

/// The guarded value, stripped of CastType refinements: a cast is a static
/// annotation over the same runtime value, so a guard on the cast and a
/// guard on the original test the same thing.
const Instr *canonicalGuardValue(const Instr *V) {
  while (V->Op == IrOp::CastType)
    V = V->op(0);
  return V;
}

/// Guard equivalence key: predicate kind, canonical value, expectation.
using GuardKey = std::tuple<uint8_t, const Instr *, uint64_t>;

bool guardKeyOf(const Instr *Assume, GuardKey &Key) {
  if (Assume->Op != IrOp::AssumeIr || Assume->Ops.size() != 2)
    return false;
  const Instr *Cond = Assume->op(0);
  uint64_t Extra;
  switch (Cond->Op) {
  case IrOp::IsTagIr:
    Extra = static_cast<uint64_t>(Cond->TagArg);
    break;
  case IrOp::IsFunIr:
    Extra = reinterpret_cast<uintptr_t>(Cond->Target);
    break;
  case IrOp::IsBuiltinIr:
    Extra = static_cast<uint64_t>(Cond->Bid);
    break;
  default:
    return false;
  }
  Key = {static_cast<uint8_t>(Cond->Op), canonicalGuardValue(Cond->op(0)),
         Extra};
  return true;
}

/// Walks the dominator tree; guards whose key is active (established by a
/// dominating equivalent guard) are removed — if the dominating guard
/// passed, the dominated one cannot fail, and if it failed, the dominated
/// one was never reached.
struct GuardEliminator {
  const DomTree &DT;
  std::map<GuardKey, int> Active;
  uint32_t Removed = 0;

  void visit(BB *B) {
    std::vector<GuardKey> Pushed;
    auto &Is = B->Instrs;
    for (size_t K = 0; K < Is.size();) {
      GuardKey Key;
      if (guardKeyOf(Is[K].get(), Key)) {
        if (Active.count(Key)) {
          Is.erase(Is.begin() + K);
          ++Removed;
          continue;
        }
        ++Active[Key];
        Pushed.push_back(Key);
      }
      ++K;
    }
    for (BB *Child : DT.children(B))
      visit(Child);
    for (const GuardKey &Key : Pushed)
      if (--Active[Key] == 0)
        Active.erase(Key);
  }
};

uint32_t elimRedundantGuards(IrCode &C) {
  if (!C.Entry)
    return 0;
  DomTree DT(C);
  GuardEliminator E{DT, {}, 0};
  E.visit(C.Entry);
  return E.Removed;
}

//===----------------------------------------------------------------------===//
// Hoisting
//===----------------------------------------------------------------------===//

/// Pure *and total* instructions: no side effects and no error path on
/// any input, so they are safe to execute speculatively — even on a
/// zero-trip loop entry the original program never runs them on.
bool totallyHoistable(const Instr *I) {
  switch (I->Op) {
  case IrOp::BinTyped:
    // Unboxed scalar arithmetic is total *except* integer %% and %/%,
    // which raise on a zero divisor (Div and Pow are computed in Real by
    // typed lowering; Real %% is fmod and never raises).
    return !(I->Knd == Tag::Int &&
             (I->Bop == BinOp::Mod || I->Bop == BinOp::IDiv));
  case IrOp::LengthIr:   // length() is defined for every value
  case IrOp::IsTagIr:    // guard predicates are pure tag/identity tests
  case IrOp::IsFunIr:
  case IrOp::IsBuiltinIr:
    return true;
  case IrOp::CoerceNum:
    // Scalar numeric coercion cannot raise when the operand is statically
    // a numeric scalar (the invariant under which lowertyped inserts it).
    return I->op(0)->Type.precise() && I->op(0)->Type.numericOnly() &&
           !isNumVecTag(I->op(0)->Type.uniqueTag());
  default:
    // CastType is handled by guard hoisting only: a cast materializes as
    // an unchecked unbox, which is safe strictly *after* its guard.
    return false;
  }
}

/// Pure but *faulting* instructions: no side effects, but an error path
/// exists for some inputs (zero divisor, over-long sequence). Hoisting
/// one is only sound when it is guaranteed to execute whenever the loop
/// is entered — otherwise a zero-trip entry observes an error the
/// original program never raises.
bool faultingHoistable(const Instr *I) {
  switch (I->Op) {
  case IrOp::BinTyped:
    return I->Knd == Tag::Int &&
           (I->Bop == BinOp::Mod || I->Bop == BinOp::IDiv);
  case IrOp::BinGen:
    // `:` over integral bounds allocates the sequence — hoisting it out
    // of an enclosing loop removes an O(n) allocation per iteration (the
    // nested-loop `for (i in 1:n)` shape) — but raises on ranges longer
    // than the VM's sequence bound.
    return I->Bop == BinOp::Colon &&
           I->op(0)->Type.subtypeOf(
               RType::of(Tag::Lgl).join(RType::of(Tag::Int))) &&
           I->op(1)->Type.subtypeOf(
               RType::of(Tag::Lgl).join(RType::of(Tag::Int)));
  default:
    return false;
  }
}

/// Moves \p I from its block into \p PH, right before the terminator.
void moveToBlock(Instr *I, BB *PH) {
  BB *B = I->Parent;
  for (size_t K = 0; K < B->Instrs.size(); ++K) {
    if (B->Instrs[K].get() != I)
      continue;
    std::unique_ptr<Instr> Owned = std::move(B->Instrs[K]);
    B->Instrs.erase(B->Instrs.begin() + K);
    Owned->Parent = PH;
    assert(PH->terminated() && "preheader must be terminated");
    PH->Instrs.insert(PH->Instrs.end() - 1, std::move(Owned));
    return;
  }
  assert(false && "instruction not in its parent block");
}

/// Constants (and undefs) are position-independent: the backend
/// materializes them once at function entry, so they are available at any
/// program point regardless of the block that happens to hold them.
bool availableEverywhere(const Instr *I) {
  return I->Op == IrOp::Const || I->Op == IrOp::Undef;
}

struct LoopHoister {
  IrCode &C;
  const DomTree &DT;
  NaturalLoop &L;
  LoopOptStats &Stats;
  std::vector<BB *> BodyRpo;  ///< loop blocks in reverse post-order
  std::vector<BB *> Exiting;  ///< loop blocks with a successor outside

  /// True when \p B runs on *every* entry of the loop: it dominates every
  /// exiting block, so any execution that enters (and eventually leaves)
  /// the loop passes through it. This is the licence to hoist pure-but-
  /// faulting instructions — the preheader then raises only what the
  /// first iteration would have raised anyway. Loops with no exit at all
  /// (infinite) get no such licence: the original program may spin
  /// forever without ever reaching the instruction.
  bool guaranteedOnEntry(const BB *B) const {
    if (Exiting.empty())
      return false;
    for (const BB *E : Exiting)
      if (B != E && !DT.dominates(B, E))
        return false;
    return true;
  }

  /// True when \p V is usable from the preheader: defined outside the
  /// loop, or a position-independent constant.
  bool invariant(const Instr *V) const {
    return availableEverywhere(V) || !L.contains(V);
  }

  /// Maps a value the header-entry state refers to onto its pre-loop
  /// definition: header phis become their preheader incoming value;
  /// anything else must already be defined outside the loop. Null when the
  /// value has no pre-loop equivalent.
  Instr *mapEntryValue(Instr *V) const {
    if (V->Op == IrOp::Phi && V->Parent == L.Header) {
      for (size_t K = 0; K < L.Header->Preds.size(); ++K)
        if (L.Header->Preds[K] == L.Preheader && K < V->Ops.size())
          V = V->Ops[K];
    }
    return invariant(V) ? V : nullptr;
  }

  /// The translator's anchor checkpoint of this loop's header, if any.
  Instr *headerAnchor() const {
    for (auto &IP : L.Header->Instrs)
      if (IP->Op == IrOp::CheckpointIr && IP->Anchor && !IP->Ops.empty())
        return IP.get();
    return nullptr;
  }

  /// Clones the anchor's framestate chain into the preheader with every
  /// operand mapped to its pre-loop value, then a fresh checkpoint.
  /// Returns null when any captured value has no pre-loop definition.
  Instr *clonePreheaderCheckpoint() {
    Instr *AnchorCp = headerAnchor();
    if (!AnchorCp)
      return nullptr;

    // Validate and map the whole chain before materializing anything.
    std::vector<const Instr *> Chain; // innermost first
    for (const Instr *Fs = AnchorCp->op(0); Fs; Fs = Fs->parentFs())
      Chain.push_back(Fs);
    std::vector<std::vector<Instr *>> Mapped(Chain.size());
    for (size_t F = 0; F < Chain.size(); ++F) {
      const Instr *Fs = Chain[F];
      size_t NOwn = Fs->StackCount + Fs->EnvSyms.size();
      for (size_t K = 0; K < NOwn; ++K) {
        Instr *M = mapEntryValue(Fs->Ops[K]);
        if (!M)
          return nullptr;
        Mapped[F].push_back(M);
      }
    }

    // Materialize outermost-first so each clone can link its parent. A
    // local whose pre-loop value is Undef is first assigned inside the
    // loop: before it, the interpreter has no binding, and neither does
    // the clone (like the translator's checkpoints) — a binding to NULL
    // would also make the deoptless cleanup retype its reads as NULL.
    Instr *ParentClone = nullptr;
    for (size_t F = Chain.size(); F > 0; --F) {
      const Instr *Fs = Chain[F - 1];
      auto NF = C.make(IrOp::FrameStateIr, RType::none());
      NF->BcPc = Fs->BcPc;
      NF->StackCount = Fs->StackCount;
      NF->Target = Fs->Target;
      const std::vector<Instr *> &Vals = Mapped[F - 1];
      NF->Ops.assign(Vals.begin(), Vals.begin() + Fs->StackCount);
      for (size_t K = 0; K < Fs->EnvSyms.size(); ++K) {
        Instr *V = Vals[Fs->StackCount + K];
        if (V->Op == IrOp::Undef)
          continue;
        NF->Ops.push_back(V);
        NF->EnvSyms.push_back(Fs->EnvSyms[K]);
      }
      if (ParentClone) {
        NF->Ops.push_back(ParentClone);
        NF->HasParentFs = true;
      }
      NF->Parent = L.Preheader;
      L.Preheader->Instrs.insert(L.Preheader->Instrs.end() - 1,
                                 std::move(NF));
      ParentClone = L.Preheader->Instrs[L.Preheader->Instrs.size() - 2].get();
    }
    auto Cp = C.make(IrOp::CheckpointIr, RType::none());
    Cp->Ops.push_back(ParentClone);
    Cp->Parent = L.Preheader;
    L.Preheader->Instrs.insert(L.Preheader->Instrs.end() - 1, std::move(Cp));
    return L.Preheader->Instrs[L.Preheader->Instrs.size() - 2].get();
  }

  void hoistInstrs() {
    bool Again = true;
    while (Again) {
      Again = false;
      for (BB *B : BodyRpo) {
        bool Guaranteed = guaranteedOnEntry(B);
        auto &Is = B->Instrs;
        for (size_t K = 0; K < Is.size();) {
          Instr *I = Is[K].get();
          bool Invariant =
              totallyHoistable(I) || (Guaranteed && faultingHoistable(I));
          for (Instr *Op : I->Ops)
            Invariant = Invariant && invariant(Op);
          if (!Invariant) {
            ++K;
            continue;
          }
          moveToBlock(I, L.Preheader);
          ++Stats.HoistedInstrs;
          Again = true;
        }
      }
    }
  }

  void hoistGuards() {
    // Collect candidates first: moving instructions invalidates the block
    // iteration. A guard qualifies when its predicate tests a value with a
    // pre-loop definition — the predicate itself moves along with the
    // guard (it is pure and emits no code of its own).
    std::vector<Instr *> Candidates;
    for (BB *B : BodyRpo)
      for (auto &IP : B->Instrs) {
        if (IP->Op != IrOp::AssumeIr || IP->Ops.size() != 2)
          continue;
        Instr *Cond = IP->op(0);
        if (Cond->Op != IrOp::IsTagIr && Cond->Op != IrOp::IsFunIr &&
            Cond->Op != IrOp::IsBuiltinIr)
          continue;
        if (!invariant(Cond) && !invariant(Cond->op(0)))
          continue; // the guarded value varies inside the loop
        Candidates.push_back(IP.get());
      }
    if (Candidates.empty())
      return;

    Instr *PhCp = clonePreheaderCheckpoint();
    if (!PhCp)
      return; // no anchor / header state has no pre-loop equivalent

    for (Instr *As : Candidates) {
      Instr *Cond = As->op(0);
      // Re-anchoring can move a guard out of an inlined callee's frame
      // into the enclosing frame (the anchor describes the loop's own
      // frame). The guard's feedback slot and reason pc index the
      // *original* frame's function — drop them rather than let the
      // deopt-time profile repair poke another function's tables.
      Instr *OldFs = As->op(1)->op(0);
      Instr *NewFs = PhCp->op(0);
      if (OldFs->Target != NewFs->Target) {
        As->Idx = -1;
        As->BcPc = NewFs->BcPc;
      }
      if (!invariant(Cond))
        moveToBlock(Cond, L.Preheader);
      moveToBlock(As, L.Preheader);
      As->Ops[1] = PhCp;
      ++Stats.HoistedGuards;

      // The refinement casts the guard justifies follow it out: a cast
      // materializes as an unchecked unbox, which is exactly as safe in
      // the preheader (after the hoisted guard) as it was after the
      // original one.
      if (Cond->Op != IrOp::IsTagIr)
        continue;
      std::vector<Instr *> Casts;
      for (BB *B : BodyRpo)
        for (auto &IP : B->Instrs)
          if (IP->Op == IrOp::CastType && IP->op(0) == Cond->op(0) &&
              IP->TagArg == Cond->TagArg)
            Casts.push_back(IP.get());
      for (Instr *Cast : Casts)
        moveToBlock(Cast, L.Preheader);
    }
  }
};

} // namespace

LoopOptStats rjit::runLoopOpts(IrCode &C) {
  LoopOptStats Stats;
  if (!C.Entry)
    return Stats;

  // Pass 1: prune guards an equivalent dominating guard already covers —
  // fewer guards to hoist, and inlined callees re-checking what the call
  // site established disappear here.
  Stats.EliminatedGuards += elimRedundantGuards(C);

  DomTree DT(C);
  std::vector<NaturalLoop> Loops = findLoops(C, DT);
  if (!Loops.empty()) {
    // Preheader synthesis first; any CFG change invalidates the
    // dominator tree and the loop body sets (an inner preheader belongs
    // to the enclosing loop), so recompute and re-locate before
    // hoisting.
    for (NaturalLoop &L : Loops)
      ensurePreheader(C, L);
    DomTree DTF(C);
    Loops = findLoops(C, DTF);
    for (NaturalLoop &L : Loops) {
      bool Again = ensurePreheader(C, L);
      assert(!Again && "preheader synthesis must be idempotent");
      (void)Again;
    }

    // Innermost-first: what lands in an inner preheader is inside the
    // enclosing loop and gets hoisted again when that loop is invariant
    // in it too.
    std::vector<BB *> Rpo = C.rpo();
    for (NaturalLoop &L : Loops) {
      LoopHoister H{C, DTF, L, Stats, {}, {}};
      for (BB *B : Rpo)
        if (L.contains(B)) {
          H.BodyRpo.push_back(B);
          for (BB *S : {B->Succs[0], B->Succs[1]})
            if (S && !L.contains(S)) {
              H.Exiting.push_back(B);
              break;
            }
        }
      H.hoistInstrs();
      H.hoistGuards();
    }
  }

  // Pass 2: guards hoisted out of sibling positions can meet as duplicates
  // in one preheader; dedupe them.
  if (Stats.HoistedGuards > 0)
    Stats.EliminatedGuards += elimRedundantGuards(C);

  // Consume the translator anchors: from here on unused header
  // checkpoints are ordinary dead speculation machinery.
  C.eachInstr([](Instr *I) { I->Anchor = false; });
  return Stats;
}
