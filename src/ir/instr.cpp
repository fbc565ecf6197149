//===-- ir/instr.cpp - Optimizer IR ------------------------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/instr.h"

using namespace rjit;

const char *rjit::deoptReasonName(DeoptReasonKind K) {
  switch (K) {
  case DeoptReasonKind::Typecheck:
    return "typecheck";
  case DeoptReasonKind::CallTarget:
    return "calltarget";
  case DeoptReasonKind::BuiltinEpoch:
    return "builtin-epoch";
  case DeoptReasonKind::Injected:
    return "injected";
  }
  return "?";
}

const char *rjit::irOpName(IrOp Op) {
  switch (Op) {
  case IrOp::Const:
    return "const";
  case IrOp::Param:
    return "param";
  case IrOp::Phi:
    return "phi";
  case IrOp::Undef:
    return "undef";
  case IrOp::CoerceNum:
    return "coerce";
  case IrOp::LdVarEnv:
    return "ldvar";
  case IrOp::StVarEnv:
    return "stvar";
  case IrOp::StVarSuperEnv:
    return "stvar<<";
  case IrOp::MkClosureIr:
    return "mkclos";
  case IrOp::CallVal:
    return "call";
  case IrOp::CallBuiltinKnown:
    return "callbi";
  case IrOp::CallStatic:
    return "callstatic";
  case IrOp::BinGen:
    return "bin";
  case IrOp::BinTyped:
    return "bin.t";
  case IrOp::NegGen:
    return "neg";
  case IrOp::NotGen:
    return "not";
  case IrOp::AsCond:
    return "ascond";
  case IrOp::Extract2Gen:
    return "idx2";
  case IrOp::Extract1Gen:
    return "idx1";
  case IrOp::Extract2Typed:
    return "idx2.t";
  case IrOp::SetIdx2Env:
    return "setidx2";
  case IrOp::SetIdx1Env:
    return "setidx1";
  case IrOp::SetElem2Gen:
    return "setelem2";
  case IrOp::SetElem2Typed:
    return "setelem2.t";
  case IrOp::LengthIr:
    return "length";
  case IrOp::CastType:
    return "cast";
  case IrOp::IsTagIr:
    return "istag";
  case IrOp::IsFunIr:
    return "isfun";
  case IrOp::FrameStateIr:
    return "framestate";
  case IrOp::CheckpointIr:
    return "checkpoint";
  case IrOp::AssumeIr:
    return "assume";
  case IrOp::EpochCheckIr:
    return "epochcheck";
  case IrOp::Jump:
    return "jump";
  case IrOp::BranchIr:
    return "branch";
  case IrOp::Ret:
    return "ret";
  }
  return "?";
}

bool rjit::hasSideEffects(IrOp Op) {
  switch (Op) {
  case IrOp::StVarEnv:
  case IrOp::StVarSuperEnv:
  case IrOp::SetIdx2Env:
  case IrOp::SetIdx1Env:
  case IrOp::CallVal:
  case IrOp::CallBuiltinKnown:
  case IrOp::CallStatic:
  case IrOp::MkClosureIr:
  case IrOp::AssumeIr:
  case IrOp::EpochCheckIr:
  case IrOp::Jump:
  case IrOp::BranchIr:
  case IrOp::Ret:
    return true;
  default:
    return false;
  }
}

void IrCode::removeEdge(BB *Pred, BB *Succ) {
  for (size_t K = 0; K < Succ->Preds.size(); ++K) {
    if (Succ->Preds[K] != Pred)
      continue;
    Succ->Preds.erase(Succ->Preds.begin() + K);
    for (auto &IP : Succ->Instrs) {
      if (IP->Op != IrOp::Phi)
        continue;
      if (K < IP->Ops.size()) {
        IP->Ops.erase(IP->Ops.begin() + K);
        IP->Incoming.erase(IP->Incoming.begin() + K);
      }
    }
    return;
  }
}

void IrCode::replaceAllUses(Instr *From, Instr *To) {
  eachInstr([&](Instr *I) {
    for (auto &Op : I->Ops)
      if (Op == From)
        Op = To;
  });
}

std::vector<BB *> IrCode::rpo() const {
  std::vector<BB *> Post;
  std::vector<std::pair<BB *, int>> Stack;
  std::vector<bool> Visited(NextBlockId, false);
  if (!Entry)
    return Post;
  Stack.push_back({Entry, 0});
  Visited[Entry->Id] = true;
  while (!Stack.empty()) {
    auto &[B, NextSucc] = Stack.back();
    bool Descended = false;
    while (NextSucc < 2) {
      BB *S = B->Succs[NextSucc++];
      if (S && !Visited[S->Id]) {
        Visited[S->Id] = true;
        Stack.push_back({S, 0});
        Descended = true;
        break;
      }
    }
    if (!Descended && NextSucc >= 2) {
      Post.push_back(B);
      Stack.pop_back();
    }
  }
  std::vector<BB *> Rpo(Post.rbegin(), Post.rend());
  return Rpo;
}

bool IrCode::sweepDead() {
  // Mark: effectful instructions and terminators are roots; everything
  // reachable through operands stays. Checkpoints are pure — an unused
  // checkpoint (no Assume referencing it) disappears together with its
  // framestate, like Ř dropping unused exit points.
  std::vector<BB *> Reach = rpo();
  std::vector<bool> BlockLive(NextBlockId, false);
  for (BB *B : Reach)
    BlockLive[B->Id] = true;

  // Detach unreachable blocks from live successors first so phis don't
  // keep dangling operands once the dead instructions are destroyed.
  for (auto &B : Blocks) {
    if (BlockLive[B->Id])
      continue;
    for (BB *S : {B->Succs[0], B->Succs[1]})
      if (S && BlockLive[S->Id])
        removeEdge(B.get(), S);
    B->Succs[0] = B->Succs[1] = nullptr;
  }

  std::vector<bool> Live(NextInstrId, false);
  std::vector<Instr *> Work;
  for (BB *B : Reach)
    for (auto &I : B->Instrs)
      if (hasSideEffects(I->Op) || I->isTerminator() ||
          I->Op == IrOp::Param || I->Anchor)
        if (!Live[I->Id]) {
          Live[I->Id] = true;
          Work.push_back(I.get());
        }
  while (!Work.empty()) {
    Instr *I = Work.back();
    Work.pop_back();
    for (Instr *Op : I->Ops)
      if (!Live[Op->Id]) {
        Live[Op->Id] = true;
        Work.push_back(Op);
      }
  }

  bool Changed = false;
  // Drop dead instructions; keep Params (they define the call convention).
  for (auto &B : Blocks) {
    if (!BlockLive[B->Id]) {
      if (!B->Instrs.empty()) {
        B->Instrs.clear();
        Changed = true;
      }
      continue;
    }
    auto &Is = B->Instrs;
    size_t W = 0;
    for (size_t R = 0; R < Is.size(); ++R) {
      if (Live[Is[R]->Id]) {
        if (W != R)
          Is[W] = std::move(Is[R]);
        ++W;
      } else {
        Changed = true;
      }
    }
    Is.resize(W);
  }
  return Changed;
}
