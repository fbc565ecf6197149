//===-- opt/peel.cpp - Peeling type-unstable loops ------------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/peel.h"

#include "ir/cfg.h"
#include "opt/inline.h"

#include <unordered_map>

using namespace rjit;

namespace {

bool scalarKind(RType T) {
  return T.isExactly(Tag::Lgl) || T.isExactly(Tag::Int) ||
         T.isExactly(Tag::Real) || T.isExactly(Tag::Cplx);
}

/// True when a phi of \p L's header enters as one scalar kind and comes
/// around the back-edges as another.
bool typeUnstable(const NaturalLoop &L) {
  BB *H = L.Header;
  for (auto &IP : H->Instrs) {
    if (IP->Op != IrOp::Phi)
      continue;
    RType In = RType::none(), Back = RType::none();
    for (size_t K = 0; K < IP->Ops.size(); ++K) {
      RType &Side = L.contains(H->Preds[K]) ? Back : In;
      Side = Side.join(IP->Ops[K]->Type);
    }
    if (scalarKind(In) && scalarKind(Back) && In != Back)
      return true;
  }
  return false;
}

/// The loop's blocks, in creation order (deterministic).
std::vector<BB *> bodyOf(const IrCode &C, const NaturalLoop &L) {
  std::vector<BB *> Body;
  for (auto &BP : C.Blocks)
    if (L.contains(BP.get()))
      Body.push_back(BP.get());
  return Body;
}

/// The target of the loop's only exit edge when that edge leaves from the
/// header; null otherwise.
BB *headerExit(const NaturalLoop &L, const std::vector<BB *> &Body) {
  BB *Exit = nullptr;
  for (BB *B : Body)
    for (BB *S : B->Succs) {
      if (!S || L.contains(S))
        continue;
      if (B != L.Header || Exit)
        return nullptr;
      Exit = S;
    }
  return Exit;
}

/// The loop's exit block when \p L qualifies for peeling, else null.
/// With one exit, from the header, only header values can have uses
/// beyond the loop: nothing else dominates the exit.
BB *peelableExit(const IrCode &C, const NaturalLoop &L) {
  if (!typeUnstable(L))
    return nullptr;
  std::vector<BB *> Body = bodyOf(C, L);
  size_t Size = 0;
  for (BB *B : Body)
    Size += B->Instrs.size();
  if (Size > MaxPeelSize)
    return nullptr;
  return headerExit(L, Body);
}

/// Puts a fresh block on the edge H -> \p Exit and returns it.
BB *splitExitEdge(IrCode &C, BB *H, BB *Exit) {
  BB *E = C.newBlock();
  for (BB *&S : H->Succs)
    if (S == Exit)
      S = E;
  for (BB *&P : Exit->Preds)
    if (P == H)
      P = E;
  for (auto &IP : Exit->Instrs)
    if (IP->Op == IrOp::Phi)
      for (BB *&In : IP->Incoming)
        if (In == H)
          In = E;
  E->Preds.push_back(H);
  E->append(C.make(IrOp::Jump, RType::none()));
  E->Succs[0] = Exit;
  return E;
}

void peel(IrCode &C, NaturalLoop &L, BB *Exit) {
  BB *H = L.Header;
  ensurePreheader(C, L);
  BB *PH = L.Preheader;
  std::vector<BB *> Body = bodyOf(C, L);

  // Every use of a header value beyond the loop reads a phi on the exit
  // edge instead: once peeled, the value comes from either copy of the
  // header.
  BB *E = splitExitEdge(C, H, Exit);
  std::unordered_map<Instr *, Instr *> Merges;
  for (auto &BP : C.Blocks) {
    if (L.contains(BP.get()) || BP.get() == E)
      continue;
    for (auto &IP : BP->Instrs)
      for (Instr *&Op : IP->Ops) {
        if (Op->Parent != H)
          continue;
        Instr *&M = Merges[Op];
        if (!M) {
          auto Phi = C.make(IrOp::Phi, Op->Type);
          Phi->Ops.push_back(Op);
          Phi->Incoming.push_back(H);
          Phi->Parent = E;
          E->Instrs.insert(E->Instrs.begin(), std::move(Phi));
          M = E->Instrs.front().get();
        }
        Op = M;
      }
  }

  // Copy the body with each header phi substituted by its entry value:
  // the copy is the first iteration.
  size_t EntryIdx = 0;
  while (H->Preds[EntryIdx] != PH)
    ++EntryIdx;
  CloneMap Map;
  for (auto &IP : H->Instrs)
    if (IP->Op == IrOp::Phi)
      Map.Instrs[IP.get()] = IP->Ops[EntryIdx];
  cloneBlocks(C, Body, Map);
  for (BB *B : Body)
    for (auto &IP : Map(B)->Instrs)
      IP->Anchor = false; // the copy is no loop header

  // The preheader enters the copy; the copy's back-edges enter the loop
  // and take the preheader's place in the header's phis.
  BB *H1 = Map(H);
  H1->Preds = {PH};
  PH->Succs[0] = H1;
  std::vector<BB *> Preds;
  std::vector<size_t> From; // index into the old pred list per new pred
  for (size_t K = 0; K < H->Preds.size(); ++K) {
    if (K != EntryIdx) {
      Preds.push_back(H->Preds[K]);
      From.push_back(K);
      continue;
    }
    for (size_t J = 0; J < H->Preds.size(); ++J) {
      if (!L.contains(H->Preds[J]))
        continue;
      BB *Latch1 = Map(H->Preds[J]);
      for (BB *&S : Latch1->Succs)
        if (S == H1)
          S = H;
      Preds.push_back(Latch1);
      From.push_back(J);
    }
  }
  for (auto &IP : H->Instrs) {
    if (IP->Op != IrOp::Phi)
      continue;
    std::vector<Instr *> Ops;
    for (size_t N = 0; N < Preds.size(); ++N) {
      Instr *V = IP->Ops[From[N]];
      Ops.push_back(L.contains(Preds[N]) ? V : Map(V));
    }
    IP->Ops = std::move(Ops);
    IP->Incoming = Preds;
  }
  H->Preds = std::move(Preds);

  // The copy's loop test leaves through the exit edge as well.
  E->Preds.push_back(H1);
  for (auto &IP : E->Instrs)
    if (IP->Op == IrOp::Phi) {
      IP->Ops.push_back(Map(IP->Ops.front()));
      IP->Incoming.push_back(H1);
    }
}

} // namespace

uint32_t rjit::peelLoops(IrCode &C) {
  if (!C.Entry)
    return 0;
  // Decide from one analysis: the phi types are inference's, and a
  // peeled loop's phis keep their stale types until the next fixpoint.
  std::vector<BB *> Headers;
  {
    DomTree DT(C);
    for (NaturalLoop &L : findLoops(C, DT))
      if (peelableExit(C, L))
        Headers.push_back(L.Header);
  }
  uint32_t Peeled = 0;
  for (BB *H : Headers) {
    // Peeling changes the CFG: re-locate the loop (an inner one may have
    // grown its enclosing loop past the size bound).
    DomTree DT(C);
    for (NaturalLoop &L : findLoops(C, DT)) {
      if (L.Header != H)
        continue;
      if (BB *Exit = peelableExit(C, L)) {
        peel(C, L, Exit);
        ++Peeled;
      }
      break;
    }
  }
  return Peeled;
}
