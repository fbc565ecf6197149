//===-- opt/inline.cpp - Speculative inlining -----------------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/inline.h"

#include "ir/cfg.h"

#include <vector>

using namespace rjit;

namespace {

/// True for ops that touch a live environment: a body containing any of
/// these cannot be spliced into another function (its lexical environment
/// is not the caller's).
bool touchesEnv(IrOp Op) {
  switch (Op) {
  case IrOp::LdVarEnv:
  case IrOp::StVarEnv:
  case IrOp::StVarSuperEnv:
  case IrOp::MkClosureIr:
  case IrOp::SetIdx2Env:
    return true;
  default:
    return false;
  }
}

class Inliner {
public:
  Inliner(IrCode &C, const OptOptions &Opts) : C(C), Opts(Opts) {}

  uint32_t run() {
    std::vector<std::pair<Instr *, uint32_t>> Work;
    C.eachInstr([&](Instr *I) {
      if (I->Op == IrOp::CallStatic)
        Work.push_back({I, 0});
    });
    uint32_t Count = 0;
    while (!Work.empty()) {
      auto [Call, Depth] = Work.back();
      Work.pop_back();
      if (Depth >= MaxInlineDepth)
        continue;
      if (tryInline(Call, Depth, Work))
        ++Count;
    }
    return Count;
  }

private:
  IrCode &C;
  const OptOptions &Opts;

  /// The callee-identity Assume guarding \p Call: the nearest preceding
  /// AssumeIr in the call's block whose condition tests the call's target.
  Instr *guardOf(Instr *Call) {
    BB *B = Call->Parent;
    size_t Pos = posIn(B, Call);
    for (size_t K = Pos; K > 0; --K) {
      Instr *I = B->Instrs[K - 1].get();
      if (I->Op != IrOp::AssumeIr)
        continue;
      Instr *Cond = I->Ops.empty() ? nullptr : I->op(0);
      if (Cond && Cond->Op == IrOp::IsFunIr && Cond->Target == Call->Target &&
          I->Ops.size() == 2)
        return I;
      return nullptr; // a different guard intervenes: stay conservative
    }
    return nullptr;
  }

  static size_t posIn(BB *B, const Instr *I) {
    for (size_t K = 0; K < B->Instrs.size(); ++K)
      if (B->Instrs[K].get() == I)
        return K;
    assert(false && "instruction not in its parent block");
    return B->Instrs.size();
  }

  bool tryInline(Instr *Call, uint32_t Depth,
                 std::vector<std::pair<Instr *, uint32_t>> &Work) {
    Function *Callee = Call->Target;
    size_t NArgs = Call->Ops.size() - 1;
    if (!Callee || Callee->Params.size() != NArgs)
      return false;
    if (Callee->BC.Instrs.size() > MaxInlineSize)
      return false;

    Instr *As = guardOf(Call);
    if (!As)
      return false;
    Instr *CallFs = As->op(1)->op(0);
    if (CallFs->StackCount < NArgs + 1)
      return false; // checkpoint does not cover callee + args

    // Translate the callee with the caller's argument types seeding its
    // parameters (contextual specialization flows through the call).
    EntryState Entry;
    Entry.ParamTypes.reserve(NArgs);
    for (size_t K = 0; K < NArgs; ++K) {
      RType T = Call->op(K + 1)->Type;
      Entry.ParamTypes.push_back(T.isNone() ? RType::any() : T);
    }
    std::unique_ptr<IrCode> Body =
        translate(Callee, CallConv::FullElided, Entry, Opts);
    // A folded global builtin is a global read too: the caller's code
    // would need the callee's epoch checks at its own call sites.
    if (!Body || Body->FoldsBuiltins)
      return false;

    std::vector<Instr *> Rets;
    bool EnvFree = true;
    Body->eachInstr([&](Instr *I) {
      if (touchesEnv(I->Op))
        EnvFree = false;
      if (I->Op == IrOp::Ret)
        Rets.push_back(I);
    });
    if (!EnvFree || Rets.empty())
      return false;

    splice(Call, CallFs, *Body, Rets, Depth, Work);
    return true;
  }

  /// Builds the caller's return-framestate: the interpreter state with
  /// which the caller resumes after the inlined callee delivers a value —
  /// the call-site framestate minus the callee and arguments on the
  /// operand stack, one pc past the call. Inserted right before \p Call.
  Instr *buildReturnFs(Instr *Call, Instr *CallFs, size_t NArgs) {
    auto Fs = C.make(IrOp::FrameStateIr, RType::none());
    Fs->BcPc = CallFs->BcPc + 1;
    Fs->StackCount = CallFs->StackCount - static_cast<uint32_t>(NArgs) - 1;
    for (uint32_t K = 0; K < Fs->StackCount; ++K)
      Fs->Ops.push_back(CallFs->stackOp(K));
    for (size_t K = 0; K < CallFs->EnvSyms.size(); ++K) {
      Fs->Ops.push_back(CallFs->envOp(K));
      Fs->EnvSyms.push_back(CallFs->EnvSyms[K]);
    }
    Fs->Target = CallFs->Target; // same frame as the call site
    if (Instr *P = CallFs->parentFs()) {
      Fs->Ops.push_back(P);
      Fs->HasParentFs = true;
    }
    Fs->Parent = Call->Parent;
    BB *B = Call->Parent;
    size_t Pos = posIn(B, Call);
    B->Instrs.insert(B->Instrs.begin() + Pos, std::move(Fs));
    return B->Instrs[Pos].get();
  }

  void splice(Instr *Call, Instr *CallFs, IrCode &Body,
              const std::vector<Instr *> &Rets, uint32_t Depth,
              std::vector<std::pair<Instr *, uint32_t>> &Work) {
    Function *Callee = Call->Target;
    size_t NArgs = Call->Ops.size() - 1;

    Instr *RetFs = buildReturnFs(Call, CallFs, NArgs);

    // Split the caller block after the call; the tail (including the
    // terminator and its successor edges) moves to a continuation block.
    BB *B = Call->Parent;
    BB *Cont = C.newBlock();
    size_t CallPos = posIn(B, Call);
    for (size_t K = CallPos + 1; K < B->Instrs.size(); ++K) {
      B->Instrs[K]->Parent = Cont;
      Cont->Instrs.push_back(std::move(B->Instrs[K]));
    }
    B->Instrs.resize(CallPos + 1);
    Cont->Succs[0] = B->Succs[0];
    Cont->Succs[1] = B->Succs[1];
    B->Succs[0] = B->Succs[1] = nullptr;
    for (BB *S : {Cont->Succs[0], Cont->Succs[1]}) {
      if (!S)
        continue;
      for (BB *&P : S->Preds)
        if (P == B)
          P = Cont;
      for (auto &IP : S->Instrs)
        if (IP->Op == IrOp::Phi)
          for (BB *&In : IP->Incoming)
            if (In == B)
              In = Cont;
    }

    // Clone the callee body with its parameters substituted by the call
    // arguments; each returning block jumps to the continuation instead.
    CloneMap Map;
    for (size_t K = 0; K < Body.Params.size(); ++K)
      Map.Instrs[Body.Params[K]] = Call->op(K + 1);
    std::vector<BB *> Src;
    for (auto &BP : Body.Blocks)
      Src.push_back(BP.get());
    cloneBlocks(C, Src, Map);
    for (Instr *R : Rets) {
      Instr *J = Map(R);
      J->Op = IrOp::Jump;
      J->Type = RType::none();
      J->Ops.clear();
      J->Parent->Succs[0] = Cont;
    }

    // Chain every callee framestate to the caller's return-framestate and
    // tag it with the frame's function.
    for (auto &BP : Body.Blocks)
      for (auto &IP : BP->Instrs) {
        if (IP->Op != IrOp::FrameStateIr)
          continue;
        Instr *NF = Map(IP.get());
        if (!NF->HasParentFs) {
          NF->Ops.push_back(RetFs);
          NF->HasParentFs = true;
        }
        if (!NF->Target)
          NF->Target = Callee;
      }

    // The callee's return value: a phi over the returned values when the
    // body has several exits. Cont's predecessors are exactly the cloned
    // ret blocks, in the order the phi operands are pushed.
    Instr *Result;
    if (Rets.size() == 1) {
      Result = Map(Rets.front()->op(0));
      Cont->Preds.push_back(Map(Rets.front()->Parent));
    } else {
      auto Phi = C.make(IrOp::Phi, RType::none());
      RType T = RType::none();
      for (Instr *R : Rets) {
        Instr *V = Map(R->op(0));
        Phi->Ops.push_back(V);
        Phi->Incoming.push_back(Map(R->Parent));
        Cont->Preds.push_back(Map(R->Parent));
        T = T.join(V->Type);
      }
      Phi->Type = T;
      Phi->Parent = Cont;
      Cont->Instrs.insert(Cont->Instrs.begin(), std::move(Phi));
      Result = Cont->Instrs.front().get();
    }
    C.replaceAllUses(Call, Result);

    // Rewire the caller block into the cloned entry and drop the call.
    BB *EntryClone = Map(Body.Entry);
    assert(B->Instrs.back().get() == Call && "call must end the split block");
    B->Instrs.pop_back();
    auto J = C.make(IrOp::Jump, RType::none());
    B->append(std::move(J));
    B->Succs[0] = EntryClone;
    EntryClone->Preds.push_back(B);

    // Nested monomorphic calls inside the spliced body are candidates one
    // level deeper.
    for (auto &BP : Body.Blocks)
      for (auto &IP : BP->Instrs)
        if (IP->Op == IrOp::CallStatic)
          Work.push_back({Map(IP.get()), Depth + 1});
  }
};

} // namespace

uint32_t rjit::inlineCalls(IrCode &C, const OptOptions &Opts) {
  if (!Opts.Inline)
    return 0;
  Inliner I(C, Opts);
  return I.run();
}
