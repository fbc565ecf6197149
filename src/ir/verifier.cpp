//===-- ir/verifier.cpp - IR structural checks --------------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/cfg.h"
#include "ir/instr.h"

#include <unordered_map>
#include <unordered_set>

using namespace rjit;

namespace {

size_t expectedArity(const Instr &I) {
  switch (I.Op) {
  case IrOp::Const:
  case IrOp::Param:
  case IrOp::Undef:
  case IrOp::LdVarEnv:
  case IrOp::MkClosureIr:
  case IrOp::Jump:
    return 0;
  case IrOp::CoerceNum:
    return 1;
  case IrOp::StVarEnv:
  case IrOp::StVarSuperEnv:
  case IrOp::NegGen:
  case IrOp::NotGen:
  case IrOp::AsCond:
  case IrOp::LengthIr:
  case IrOp::CastType:
  case IrOp::IsTagIr:
  case IrOp::IsFunIr:
  case IrOp::CheckpointIr:
  case IrOp::EpochCheckIr:
  case IrOp::BranchIr:
  case IrOp::Ret:
    return 1;
  case IrOp::BinGen:
  case IrOp::BinTyped:
  case IrOp::Extract2Gen:
  case IrOp::Extract1Gen:
  case IrOp::Extract2Typed:
  case IrOp::SetIdx2Env:
  case IrOp::SetIdx1Env:
  case IrOp::AssumeIr:
    return 2;
  case IrOp::SetElem2Gen:
  case IrOp::SetElem2Typed:
    return 3;
  default:
    return static_cast<size_t>(-1); // variable arity
  }
}

} // namespace

std::string rjit::verify(const IrCode &C) {
  std::string Err;
  auto Fail = [&](const std::string &M) {
    if (Err.empty())
      Err = M;
  };

  if (!C.Entry)
    return "no entry block";

  // Collect all instruction identities for operand validity checks.
  std::unordered_set<const Instr *> Known;
  for (auto &B : C.Blocks)
    for (auto &I : B->Instrs)
      Known.insert(I.get());

  // Dominance scaffolding (reachable blocks only; unreachable blocks are
  // garbage awaiting sweepDead and exempt from SSA rules). Constants and
  // undefs are position-independent — the backend materializes them once
  // at entry — so they are exempt as operands.
  DomTree DT(C);
  std::unordered_map<const Instr *, size_t> PosIn; // within-block order
  for (BB *B : DT.rpo())
    for (size_t K = 0; K < B->Instrs.size(); ++K)
      PosIn[B->Instrs[K].get()] = K;
  auto DefDominatesUse = [&](const Instr *Def, const BB *UseB,
                             size_t UsePos) {
    if (Def->Op == IrOp::Const || Def->Op == IrOp::Undef)
      return true;
    const BB *DefB = Def->Parent;
    if (!DefB || !DT.reachable(DefB))
      return false;
    if (DefB == UseB) {
      auto It = PosIn.find(Def);
      return It != PosIn.end() && It->second < UsePos;
    }
    return DT.dominates(DefB, UseB);
  };
  // The bytecode body a framestate's pc must lie in: the frame's function
  // (inlined callee) or the code's origin. Hand-built IR without an
  // origin skips the bound.
  auto FrameBcSize = [&](const Instr &Fs) -> int64_t {
    const Function *Fn = Fs.Target ? Fs.Target : C.Origin;
    return Fn ? static_cast<int64_t>(Fn->BC.Instrs.size()) : -1;
  };

  for (auto &B : C.Blocks) {
    bool Reachable = DT.reachable(B.get());
    bool SeenTerm = false;
    for (size_t Pos = 0; Pos < B->Instrs.size(); ++Pos) {
      Instr &I = *B->Instrs[Pos];
      if (I.Parent != B.get())
        Fail("instr %" + std::to_string(I.Id) + " has wrong parent");
      if (SeenTerm)
        Fail("instr %" + std::to_string(I.Id) + " after terminator");
      if (I.isTerminator())
        SeenTerm = true;

      size_t Want = expectedArity(I);
      if (Want != static_cast<size_t>(-1) && I.Ops.size() != Want)
        Fail(std::string(irOpName(I.Op)) + " %" + std::to_string(I.Id) +
             ": expected " + std::to_string(Want) + " operands, has " +
             std::to_string(I.Ops.size()));

      for (Instr *Op : I.Ops) {
        if (!Op || !Known.count(Op))
          Fail("instr %" + std::to_string(I.Id) + " has dangling operand");
      }
      if (!Err.empty())
        return Err; // dangling operands make the checks below unsafe

      // Definitions must dominate uses (phi operands: dominate the end of
      // their incoming block — the edge is where the value is read).
      if (Reachable && I.Op != IrOp::Phi) {
        for (Instr *Op : I.Ops)
          if (!DefDominatesUse(Op, B.get(), Pos))
            Fail("instr %" + std::to_string(I.Id) + ": operand %" +
                 std::to_string(Op->Id) + " does not dominate the use");
      }

      if (I.Op == IrOp::Phi) {
        if (I.Ops.size() != I.Incoming.size())
          Fail("phi %" + std::to_string(I.Id) +
               ": operand/incoming mismatch");
        if (I.Ops.size() != B->Preds.size())
          Fail("phi %" + std::to_string(I.Id) + ": expected " +
               std::to_string(B->Preds.size()) + " incoming, has " +
               std::to_string(I.Ops.size()));
        if (Reachable && I.Ops.size() == I.Incoming.size()) {
          for (size_t K = 0; K < I.Ops.size(); ++K) {
            if (I.Incoming[K] != B->Preds[K])
              Fail("phi %" + std::to_string(I.Id) + ": incoming block " +
                   std::to_string(K) + " does not match the pred list");
            if (DT.reachable(I.Incoming[K]) &&
                !(I.Ops[K]->Op == IrOp::Const ||
                  I.Ops[K]->Op == IrOp::Undef) &&
                !(I.Ops[K]->Parent == I.Incoming[K] ||
                  DT.dominates(I.Ops[K]->Parent, I.Incoming[K])))
              Fail("phi %" + std::to_string(I.Id) + ": operand %" +
                   std::to_string(I.Ops[K]->Id) +
                   " does not dominate its incoming edge");
          }
        }
      }
      if (I.Op == IrOp::FrameStateIr) {
        size_t Extra = I.HasParentFs ? 1 : 0;
        if (I.Ops.size() != I.StackCount + I.EnvSyms.size() + Extra)
          Fail("framestate %" + std::to_string(I.Id) + ": shape mismatch");
        if (I.HasParentFs && I.Ops.back()->Op != IrOp::FrameStateIr)
          Fail("framestate %" + std::to_string(I.Id) +
               ": parent must be a framestate");
        if (I.BcPc < 0)
          Fail("framestate %" + std::to_string(I.Id) + ": missing pc");
        // Pc consistency: the resume pc must address an instruction of
        // the frame's own bytecode body.
        int64_t BcSize = FrameBcSize(I);
        if (BcSize >= 0 && I.BcPc >= BcSize)
          Fail("framestate %" + std::to_string(I.Id) + ": pc " +
               std::to_string(I.BcPc) + " out of range (bytecode has " +
               std::to_string(BcSize) + " instructions)");
      }
      if (I.Op == IrOp::AssumeIr) {
        if (I.Ops.size() == 2 && I.Ops[1]->Op != IrOp::CheckpointIr)
          Fail("assume %" + std::to_string(I.Id) +
               ": second operand must be a checkpoint");
      }
      if (I.Op == IrOp::EpochCheckIr) {
        if (I.Ops.size() == 1 && I.Ops[0]->Op != IrOp::CheckpointIr)
          Fail("epochcheck %" + std::to_string(I.Id) +
               ": operand must be a checkpoint");
        if (!C.FoldsBuiltins)
          Fail("epochcheck %" + std::to_string(I.Id) +
               ": the code folds no builtin");
      }
      if (I.Op == IrOp::CheckpointIr) {
        if (I.Ops.size() == 1 && I.Ops[0]->Op != IrOp::FrameStateIr)
          Fail("checkpoint %" + std::to_string(I.Id) +
               ": operand must be a framestate");
      }
    }

    // Reachable, non-empty blocks must be terminated.
    if (Reachable && !B->terminated())
      Fail("BB" + std::to_string(B->Id) + " not terminated");

    Instr *T = B->terminator();
    if (T && T->Op == IrOp::BranchIr && (!B->Succs[0] || !B->Succs[1]))
      Fail("BB" + std::to_string(B->Id) + ": branch needs two successors");
    if (T && T->Op == IrOp::Jump && (!B->Succs[0] || B->Succs[1]))
      Fail("BB" + std::to_string(B->Id) + ": jump needs one successor");
    if (T && T->Op == IrOp::Ret && (B->Succs[0] || B->Succs[1]))
      Fail("BB" + std::to_string(B->Id) + ": ret must not have successors");
  }
  return Err;
}
