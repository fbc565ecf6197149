//===-- ir/cfg.cpp - Dominators & natural loops ---------------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/cfg.h"

#include <algorithm>

using namespace rjit;

DomTree::DomTree(const IrCode &C) {
  Entry = C.Entry;
  Rpo = C.rpo();
  RpoIndex.assign(C.NextBlockId, -1);
  for (size_t K = 0; K < Rpo.size(); ++K)
    RpoIndex[Rpo[K]->Id] = static_cast<int>(K);

  Idom.assign(C.NextBlockId, nullptr);
  if (!Entry)
    return;
  Idom[Entry->Id] = Entry;

  // Cooper–Harvey–Kennedy: intersect processed predecessors until fixpoint.
  auto Intersect = [&](BB *A, BB *B) {
    while (A != B) {
      while (RpoIndex[A->Id] > RpoIndex[B->Id])
        A = Idom[A->Id];
      while (RpoIndex[B->Id] > RpoIndex[A->Id])
        B = Idom[B->Id];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BB *B : Rpo) {
      if (B == Entry)
        continue;
      BB *New = nullptr;
      for (BB *P : B->Preds) {
        if (!reachable(P) || !Idom[P->Id])
          continue; // unreachable or not yet processed
        New = New ? Intersect(New, P) : P;
      }
      if (New && Idom[B->Id] != New) {
        Idom[B->Id] = New;
        Changed = true;
      }
    }
  }

  Children.assign(C.NextBlockId, {});
  for (BB *B : Rpo)
    if (B != Entry && Idom[B->Id])
      Children[Idom[B->Id]->Id].push_back(B);
  for (auto &Cs : Children)
    std::sort(Cs.begin(), Cs.end(),
              [](const BB *A, const BB *B) { return A->Id < B->Id; });
}

bool DomTree::dominates(const BB *A, const BB *B) const {
  if (!reachable(A) || !reachable(B))
    return false;
  // Walk B's idom chain; rpo indices strictly decrease, so the walk
  // terminates at the entry.
  const BB *X = B;
  while (true) {
    if (X == A)
      return true;
    if (X == Entry)
      return false;
    X = Idom[X->Id];
    if (!X)
      return false;
  }
}

const std::vector<BB *> &DomTree::children(const BB *B) const {
  static const std::vector<BB *> Empty;
  if (B->Id >= Children.size())
    return Empty;
  return Children[B->Id];
}

std::vector<NaturalLoop> rjit::findLoops(const IrCode &C, const DomTree &DT) {
  std::vector<NaturalLoop> Loops;
  auto LoopFor = [&](BB *Header) -> NaturalLoop & {
    for (NaturalLoop &L : Loops)
      if (L.Header == Header)
        return L;
    Loops.emplace_back();
    Loops.back().Header = Header;
    Loops.back().InBody.assign(C.NextBlockId, false);
    Loops.back().InBody[Header->Id] = true;
    return Loops.back();
  };

  for (BB *B : DT.rpo()) {
    for (BB *S : {B->Succs[0], B->Succs[1]}) {
      if (!S || !DT.dominates(S, B))
        continue;
      // Back-edge B -> S: the body is everything that reaches B without
      // passing the header.
      NaturalLoop &L = LoopFor(S);
      std::vector<BB *> Work{B};
      while (!Work.empty()) {
        BB *X = Work.back();
        Work.pop_back();
        if (L.InBody[X->Id])
          continue;
        L.InBody[X->Id] = true;
        for (BB *P : X->Preds)
          if (DT.reachable(P))
            Work.push_back(P);
      }
    }
  }

  for (NaturalLoop &L : Loops) {
    for (bool In : L.InBody)
      L.NumBlocks += In;
    for (BB *P : L.Header->Preds)
      if (L.contains(P))
        L.Latches.push_back(P);
  }
  std::sort(Loops.begin(), Loops.end(),
            [](const NaturalLoop &A, const NaturalLoop &B) {
              if (A.NumBlocks != B.NumBlocks)
                return A.NumBlocks < B.NumBlocks;
              return A.Header->Id < B.Header->Id;
            });
  return Loops;
}

bool rjit::ensurePreheader(IrCode &C, NaturalLoop &L) {
  BB *H = L.Header;
  std::vector<size_t> EntryIdx; // indices into H->Preds from outside the loop
  for (size_t K = 0; K < H->Preds.size(); ++K)
    if (!L.contains(H->Preds[K]))
      EntryIdx.push_back(K);
  assert(!EntryIdx.empty() && "loop header with no entry edge");

  if (EntryIdx.size() == 1) {
    BB *P = H->Preds[EntryIdx[0]];
    Instr *T = P->terminator();
    if (P != H && T && T->Op == IrOp::Jump && P->Succs[0] == H &&
        !P->Succs[1]) {
      L.Preheader = P;
      return false;
    }
  }

  // Synthesize: a fresh block taking over every entry edge. Multi-edge
  // entries merge through fresh phis in the preheader.
  BB *PH = C.newBlock();

  // Per header phi, the value flowing in from the entry edges.
  std::vector<std::pair<Instr *, Instr *>> PhiEntryVals; // (header phi, val)
  for (auto &IP : H->Instrs) {
    if (IP->Op != IrOp::Phi)
      continue;
    Instr *Uniform = nullptr;
    bool AllSame = true;
    for (size_t K : EntryIdx) {
      Instr *V = K < IP->Ops.size() ? IP->Ops[K] : nullptr;
      assert(V && "phi operand/pred mismatch");
      if (Uniform && V != Uniform)
        AllSame = false;
      Uniform = Uniform ? Uniform : V;
    }
    Instr *Val;
    if (AllSame) {
      Val = Uniform;
    } else {
      auto Merge = C.make(IrOp::Phi, IP->Type);
      Merge->Parent = PH;
      for (size_t K : EntryIdx) {
        Merge->Ops.push_back(IP->Ops[K]);
        Merge->Incoming.push_back(H->Preds[K]);
      }
      PH->Instrs.push_back(std::move(Merge));
      Val = PH->Instrs.back().get();
    }
    PhiEntryVals.push_back({IP.get(), Val});
  }

  // Redirect each entry edge onto the preheader. A predecessor may feed
  // the header through both successor slots (degenerate branch); redirect
  // one slot per entry-edge occurrence.
  for (size_t K : EntryIdx) {
    BB *P = H->Preds[K];
    unsigned Skip = 0;
    for (size_t J : EntryIdx) {
      if (J >= K)
        break;
      if (H->Preds[J] == P)
        ++Skip;
    }
    unsigned Seen = 0;
    bool Done = false;
    for (int S = 0; S < 2 && !Done; ++S) {
      if (P->Succs[S] == H) {
        if (Seen++ == Skip) {
          P->Succs[S] = PH;
          Done = true;
        }
      }
    }
    assert(Done && "entry predecessor does not branch to the header");
    (void)Done;
    PH->Preds.push_back(P);
  }

  // Shrink the header's pred list (and phi operand lists) to the in-loop
  // edges, inserting the preheader at the first entry position so phi
  // operand order stays aligned with the pred order.
  size_t InsertAt = EntryIdx.front();
  for (size_t R = EntryIdx.size(); R > 0; --R) {
    size_t K = EntryIdx[R - 1];
    H->Preds.erase(H->Preds.begin() + K);
    for (auto &IP : H->Instrs) {
      if (IP->Op != IrOp::Phi)
        continue;
      IP->Ops.erase(IP->Ops.begin() + K);
      IP->Incoming.erase(IP->Incoming.begin() + K);
    }
  }
  H->Preds.insert(H->Preds.begin() + InsertAt, PH);
  for (auto &[Phi, Val] : PhiEntryVals) {
    Phi->Ops.insert(Phi->Ops.begin() + InsertAt, Val);
    Phi->Incoming.insert(Phi->Incoming.begin() + InsertAt, PH);
  }

  auto J = C.make(IrOp::Jump, RType::none());
  PH->append(std::move(J));
  PH->Succs[0] = H;

  L.Preheader = PH;
  return true;
}

void rjit::cloneBlocks(IrCode &C, const std::vector<BB *> &Blocks,
                       CloneMap &Map) {
  // Two passes: every block and instruction first, then operands and
  // edges, so phis and back-edges resolve to copies made later.
  std::vector<std::pair<const Instr *, Instr *>> Copies;
  for (BB *B : Blocks)
    Map.Blocks[B] = C.newBlock();
  for (BB *B : Blocks) {
    BB *NB = Map.Blocks[B];
    for (auto &IP : B->Instrs) {
      if (Map.Instrs.count(IP.get()))
        continue; // substituted by the caller
      auto NI = C.make(IP->Op, IP->Type);
      NI->Cst = IP->Cst;
      NI->Sym = IP->Sym;
      NI->Bop = IP->Bop;
      NI->Knd = IP->Knd;
      NI->TagArg = IP->TagArg;
      NI->Bid = IP->Bid;
      NI->Target = IP->Target;
      NI->Idx = IP->Idx;
      NI->BcPc = IP->BcPc;
      NI->StackCount = IP->StackCount;
      NI->EnvSyms = IP->EnvSyms;
      NI->HasParentFs = IP->HasParentFs;
      NI->Anchor = IP->Anchor;
      NI->RKind = IP->RKind;
      Instr *Copy = NB->append(std::move(NI));
      Map.Instrs[IP.get()] = Copy;
      Copies.push_back({IP.get(), Copy});
    }
  }
  for (auto &[Src, Copy] : Copies) {
    Copy->Ops.reserve(Src->Ops.size());
    for (Instr *Op : Src->Ops)
      Copy->Ops.push_back(Map(Op));
    for (BB *In : Src->Incoming)
      Copy->Incoming.push_back(Map(In));
  }
  for (BB *B : Blocks) {
    BB *NB = Map.Blocks[B];
    for (BB *P : B->Preds)
      NB->Preds.push_back(Map(P));
    for (int S = 0; S < 2; ++S)
      NB->Succs[S] = B->Succs[S] ? Map(B->Succs[S]) : nullptr;
  }
}
