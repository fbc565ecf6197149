//===-- bc/compiler.cpp - AST to bytecode compiler ---------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bc/compiler.h"

using namespace rjit;

namespace {

class BcCompiler {
public:
  explicit BcCompiler(Module &M) : M(M) {}

  bool compileFunction(Function *Fn, const Node &Body) {
    Function *SaveFn = CurFn;
    int SaveDepth = Depth;
    auto SaveLoops = std::move(Loops);
    CurFn = Fn;
    Depth = 0;
    Loops.clear();

    bool Ok = expr(Body, /*ValueNeeded=*/true);
    if (Ok) {
      emit(Opcode::Return);
      assert(Depth == 0 && "operand stack imbalance");
    }

    CurFn = SaveFn;
    Depth = SaveDepth;
    Loops = std::move(SaveLoops);
    return Ok;
  }

  std::string Error;

private:
  Module &M;
  Function *CurFn = nullptr;
  int Depth = 0; ///< static operand stack depth (for break/next unwinding)

  struct LoopCtx {
    bool IsFor;              ///< for loops keep [seq counter] on the stack
    int EntryDepth;          ///< stack depth at the loop head
    int HeadPc;              ///< `next` target
    std::vector<int> BreakFixups; ///< Branch instrs to patch to the exit
  };
  std::vector<LoopCtx> Loops;

  Code &code() { return CurFn->BC; }
  int pc() const { return static_cast<int>(CurFn->BC.Instrs.size()); }

  int emit(Opcode Op, int32_t A = 0, int32_t B = 0) {
    code().Instrs.push_back({Op, A, B});
    switch (Op) {
    case Opcode::PushConst:
    case Opcode::LdVar:
    case Opcode::Dup:
    case Opcode::MkClosure:
      ++Depth;
      break;
    case Opcode::StVar:
    case Opcode::StVarSuper:
    case Opcode::Pop:
    case Opcode::BinBc:
    case Opcode::Extract2:
    case Opcode::Extract1:
    case Opcode::SetIdx2:
    case Opcode::SetIdx1:
    case Opcode::BranchFalse:
    case Opcode::Return:
      --Depth;
      break;
    case Opcode::PopN:
      Depth -= A;
      break;
    case Opcode::Call:
      Depth -= A; // pops callee + A args, pushes result
      break;
    default:
      break;
    }
    return pc() - 1;
  }

  void patch(int InstrPc, int Target) {
    code().Instrs[InstrPc].A = Target;
  }

  bool fail(const Node &N, const std::string &Msg) {
    if (Error.empty())
      Error = "compile error, line " + std::to_string(N.line()) + ": " + Msg;
    return false;
  }

  void pushNull() { emit(Opcode::PushConst, code().addConst(Value::nil())); }

  /// Compiles \p N; leaves its value on the stack iff \p ValueNeeded.
  bool expr(const Node &N, bool ValueNeeded) {
    switch (N.kind()) {
    case NodeKind::Literal: {
      if (!ValueNeeded)
        return true;
      auto &L = static_cast<const LiteralNode &>(N);
      emit(Opcode::PushConst, code().addConst(L.Val));
      return true;
    }
    case NodeKind::Var: {
      if (!ValueNeeded)
        return true; // variable lookup errors are not load-bearing here
      auto &V = static_cast<const VarNode &>(N);
      emit(Opcode::LdVar, static_cast<int32_t>(V.Name),
           CurFn->Feedback.newTypeSlot());
      return true;
    }
    case NodeKind::Block: {
      auto &B = static_cast<const BlockNode &>(N);
      if (B.Stmts.empty()) {
        if (ValueNeeded)
          pushNull();
        return true;
      }
      for (size_t I = 0; I < B.Stmts.size(); ++I) {
        bool Last = I + 1 == B.Stmts.size();
        if (!expr(*B.Stmts[I], Last && ValueNeeded))
          return false;
      }
      return true;
    }
    case NodeKind::Call:
      return call(static_cast<const CallNode &>(N), ValueNeeded);
    case NodeKind::Binary:
      return binary(static_cast<const BinaryNode &>(N), ValueNeeded);
    case NodeKind::Unary: {
      auto &U = static_cast<const UnaryNode &>(N);
      if (!expr(*U.Operand, /*ValueNeeded=*/true))
        return false;
      emit(U.Op == UnOp::Neg ? Opcode::NegBc : Opcode::NotBc);
      if (!ValueNeeded)
        emit(Opcode::Pop);
      return true;
    }
    case NodeKind::Index: {
      auto &I = static_cast<const IndexNode &>(N);
      if (!expr(*I.Obj, true) || !expr(*I.Idx, true))
        return false;
      emit(I.Sub == 2 ? Opcode::Extract2 : Opcode::Extract1, 0,
           CurFn->Feedback.newTypeSlot());
      if (!ValueNeeded)
        emit(Opcode::Pop);
      return true;
    }
    case NodeKind::Assign:
      return assign(static_cast<const AssignNode &>(N), ValueNeeded);
    case NodeKind::FunDef: {
      auto &F = static_cast<const FunDefNode &>(N);
      Function *Inner = M.addFunction(symbol("<anon>"), F.Params);
      Inner->GlobalScope = CurFn->Name == topLevelName();
      if (!compileFunction(Inner, *F.Body))
        return false;
      if (ValueNeeded) {
        CurFn->InnerFns.push_back(Inner);
        emit(Opcode::MkClosure,
             static_cast<int32_t>(CurFn->InnerFns.size() - 1));
      }
      return true;
    }
    case NodeKind::If: {
      auto &I = static_cast<const IfNode &>(N);
      if (!expr(*I.Cond, true))
        return false;
      int BrFalse = emit(Opcode::BranchFalse);
      if (!expr(*I.Then, ValueNeeded))
        return false;
      if (I.Else) {
        int BrEnd = emit(Opcode::Branch, 0, CurFn->Feedback.newBranchSlot());
        if (ValueNeeded)
          --Depth; // both arms produce the value; track once
        patch(BrFalse, pc());
        if (!expr(*I.Else, ValueNeeded))
          return false;
        patch(BrEnd, pc());
      } else {
        int BrEnd = -1;
        if (ValueNeeded) {
          BrEnd = emit(Opcode::Branch, 0, CurFn->Feedback.newBranchSlot());
          --Depth; // merge: only one arm's value materializes
        }
        patch(BrFalse, pc());
        if (ValueNeeded) {
          pushNull();
          patch(BrEnd, pc());
        }
      }
      return true;
    }
    case NodeKind::For:
      return forLoop(static_cast<const ForNode &>(N), ValueNeeded);
    case NodeKind::While:
      return whileLoop(static_cast<const WhileNode &>(N), ValueNeeded);
    case NodeKind::Repeat: {
      auto &R = static_cast<const RepeatNode &>(N);
      int Head = pc();
      Loops.push_back({/*IsFor=*/false, Depth, Head, {}});
      if (!expr(*R.Body, /*ValueNeeded=*/false))
        return false;
      emit(Opcode::Branch, Head, CurFn->Feedback.newBranchSlot());
      finishLoop(ValueNeeded);
      return true;
    }
    case NodeKind::Break: {
      if (Loops.empty())
        return fail(N, "'break' outside of a loop");
      LoopCtx &L = Loops.back();
      int Excess = Depth - L.EntryDepth;
      assert(Excess >= 0 && "stack under loop entry");
      if (Excess > 0) {
        emit(Opcode::PopN, Excess);
        Depth += Excess; // the branch doesn't fall through; restore
      }
      L.BreakFixups.push_back(
          emit(Opcode::Branch, 0, CurFn->Feedback.newBranchSlot()));
      if (ValueNeeded)
        ++Depth; // dead code after break still tracks a value
      return true;
    }
    case NodeKind::Next: {
      if (Loops.empty())
        return fail(N, "'next' outside of a loop");
      LoopCtx &L = Loops.back();
      int Excess = Depth - L.EntryDepth;
      if (Excess > 0) {
        emit(Opcode::PopN, Excess);
        Depth += Excess;
      }
      emit(Opcode::Branch, L.HeadPc, CurFn->Feedback.newBranchSlot());
      if (ValueNeeded)
        ++Depth;
      return true;
    }
    }
    return fail(N, "unsupported syntax");
  }

  bool call(const CallNode &C, bool ValueNeeded) {
    if (!expr(*C.Callee, true))
      return false;
    for (const auto &A : C.Args)
      if (!expr(*A, true))
        return false;
    int32_t Slot = CurFn->Feedback.newCallSlot();
    emit(Opcode::Call, static_cast<int32_t>(C.Args.size()), Slot);
    code().CallVars.resize(Slot + 1, NoSymbol);
    if (C.Callee->kind() == NodeKind::Var)
      code().CallVars[Slot] = static_cast<const VarNode &>(*C.Callee).Name;
    if (!ValueNeeded)
      emit(Opcode::Pop);
    return true;
  }

  bool binary(const BinaryNode &B, bool ValueNeeded) {
    // Short-circuit forms get explicit control flow.
    if (B.Op == BinOp::And || B.Op == BinOp::Or) {
      if (!expr(*B.Lhs, true))
        return false;
      emit(Opcode::AsLogicalBc);
      emit(Opcode::Dup);
      int Br;
      if (B.Op == BinOp::And) {
        Br = emit(Opcode::BranchFalse); // FALSE short-circuits &&
      } else {
        emit(Opcode::NotBc);
        Br = emit(Opcode::BranchFalse); // TRUE short-circuits ||
      }
      emit(Opcode::Pop); // drop lhs, evaluate rhs
      if (!expr(*B.Rhs, true))
        return false;
      emit(Opcode::AsLogicalBc);
      patch(Br, pc());
      if (!ValueNeeded)
        emit(Opcode::Pop);
      return true;
    }
    if (!expr(*B.Lhs, true) || !expr(*B.Rhs, true))
      return false;
    emit(Opcode::BinBc, static_cast<int32_t>(B.Op),
         CurFn->Feedback.newTypeSlotPair());
    if (!ValueNeeded)
      emit(Opcode::Pop);
    return true;
  }

  bool assign(const AssignNode &A, bool ValueNeeded) {
    if (A.Target->kind() == NodeKind::Var) {
      Symbol S = static_cast<const VarNode &>(*A.Target).Name;
      if (!expr(*A.Val, true))
        return false;
      if (ValueNeeded)
        emit(Opcode::Dup);
      emit(A.Super ? Opcode::StVarSuper : Opcode::StVar,
           static_cast<int32_t>(S));
      return true;
    }
    // Indexed assignment x[[i]] <- v / x[i] <- v.
    auto &I = static_cast<const IndexNode &>(*A.Target);
    assert(I.Obj->kind() == NodeKind::Var && "parser enforces var base");
    Symbol S = static_cast<const VarNode &>(*I.Obj).Name;
    if (A.Super)
      return fail(A, "superassignment to an indexed target is unsupported");
    if (!expr(*I.Idx, true) || !expr(*A.Val, true))
      return false;
    emit(I.Sub == 2 ? Opcode::SetIdx2 : Opcode::SetIdx1,
         static_cast<int32_t>(S), CurFn->Feedback.newTypeSlot());
    if (!ValueNeeded)
      emit(Opcode::Pop);
    return true;
  }

  bool forLoop(const ForNode &F, bool ValueNeeded) {
    if (!expr(*F.Seq, true))
      return false;
    emit(Opcode::PushConst, code().addConst(Value::integer(0)));
    int Head = pc();
    // ForStep's exit target is patched after the body.
    int Step = emit(Opcode::ForStep, static_cast<int32_t>(F.Var),
                    /*ExitPc=*/0);
    Loops.push_back({/*IsFor=*/true, Depth, Head, {}});
    if (!expr(*F.Body, /*ValueNeeded=*/false))
      return false;
    emit(Opcode::Branch, Head, CurFn->Feedback.newBranchSlot());
    // Exit: pop [seq counter].
    code().Instrs[Step].B = pc();
    for (int Fix : Loops.back().BreakFixups)
      patch(Fix, pc());
    Loops.pop_back();
    emit(Opcode::PopN, 2);
    if (ValueNeeded)
      pushNull();
    return true;
  }

  bool whileLoop(const WhileNode &W, bool ValueNeeded) {
    int Head = pc();
    Loops.push_back({/*IsFor=*/false, Depth, Head, {}});
    if (!expr(*W.Cond, true))
      return false;
    int Exit = emit(Opcode::BranchFalse);
    if (!expr(*W.Body, /*ValueNeeded=*/false))
      return false;
    emit(Opcode::Branch, Head, CurFn->Feedback.newBranchSlot());
    patch(Exit, pc());
    finishLoop(ValueNeeded);
    return true;
  }

  /// Patches pending breaks of the innermost loop and pushes the loop's
  /// NULL result if needed.
  void finishLoop(bool ValueNeeded) {
    for (int Fix : Loops.back().BreakFixups)
      patch(Fix, pc());
    Loops.pop_back();
    if (ValueNeeded)
      pushNull();
  }
};

} // namespace

BcResult rjit::compileToBc(const Node &Program) {
  auto Mod = std::make_unique<Module>();
  Function *Top = Mod->addFunction(topLevelName(), {});
  Top->GlobalScope = true;
  Mod->Top = Top;
  BcCompiler C(*Mod);
  if (!C.compileFunction(Top, Program))
    return {nullptr, C.Error};
  return {std::move(Mod), ""};
}
