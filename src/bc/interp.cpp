//===-- bc/interp.cpp - Baseline bytecode interpreter -----------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bc/interp.h"
#include "runtime/builtins.h"

using namespace rjit;

void rjit::checkArity(const Function *Fn, size_t NumArgs) {
  if (NumArgs != Fn->Params.size())
    rerror("call to '" + symbolName(Fn->Name) + "': expected " +
           std::to_string(Fn->Params.size()) + " arguments, got " +
           std::to_string(NumArgs));
}

Env *rjit::bindCallEnv(ClosObj *Clos, std::vector<Value> &&Args,
                       Value &Hold) {
  Env *E = new Env(Clos->Enclosing);
  Hold = Value::environment(E);
  for (size_t I = 0; I < Args.size(); ++I)
    E->set(Clos->Fn->Params[I], std::move(Args[I]));
  return E;
}

Value rjit::callClosureBaseline(ClosObj *Clos, std::vector<Value> &&Args) {
  checkArity(Clos->Fn, Args.size());
  Value Hold;
  return interpret(Clos->Fn, bindCallEnv(Clos, std::move(Args), Hold));
}

Value rjit::callValue(const Value &Callee, std::vector<Value> &&Args) {
  if (Callee.tag() == Tag::Builtin)
    return callBuiltin(Callee.builtinId(), Args.data(), Args.size());
  if (Callee.tag() == Tag::Clos) {
    ClosObj *Clos = Callee.closObj();
    if (InterpHooks &H = currentContext().Interp; H.CallClosure)
      return H.CallClosure(Clos, std::move(Args));
    return callClosureBaseline(Clos, std::move(Args));
  }
  rerror(std::string("attempt to apply non-function (") +
         tagName(Callee.tag()) + ")");
}

namespace {

/// The interpreter core; \p Stack and \p Pc allow resuming mid-function.
Value run(Function *Fn, Env *E, std::vector<Value> &&Stack, int32_t Pc) {
  Code &C = Fn->BC;
  FeedbackTable &FB = Fn->Feedback;
  std::vector<Value> S = std::move(Stack);
  InterpHooks &Hooks = currentContext().Interp;

  auto Pop = [&]() {
    assert(!S.empty() && "operand stack underflow");
    Value V = std::move(S.back());
    S.pop_back();
    return V;
  };

  while (true) {
    assert(Pc >= 0 && Pc < static_cast<int32_t>(C.Instrs.size()) &&
           "pc out of range");
    const BcInstr &I = C.Instrs[Pc];
    switch (I.Op) {
    case Opcode::PushConst:
      S.push_back(C.Consts[I.A]);
      ++Pc;
      break;

    case Opcode::LdVar: {
      const Value &V = E->get(static_cast<Symbol>(I.A));
      FB.Types[I.B].record(V.tag());
      S.push_back(V);
      ++Pc;
      break;
    }

    case Opcode::StVar:
      E->set(static_cast<Symbol>(I.A), Pop());
      ++Pc;
      break;

    case Opcode::StVarSuper:
      E->setSuper(static_cast<Symbol>(I.A), Pop());
      ++Pc;
      break;

    case Opcode::Dup:
      S.push_back(S.back());
      ++Pc;
      break;

    case Opcode::Pop:
      Pop();
      ++Pc;
      break;

    case Opcode::PopN:
      for (int32_t K = 0; K < I.A; ++K)
        Pop();
      ++Pc;
      break;

    case Opcode::MkClosure: {
      Function *Inner = Fn->InnerFns[I.A];
      S.push_back(Value::closure(Inner, E));
      ++Pc;
      break;
    }

    case Opcode::Call: {
      size_t NArgs = static_cast<size_t>(I.A);
      std::vector<Value> Args(NArgs);
      for (size_t K = NArgs; K > 0; --K)
        Args[K - 1] = Pop();
      Value Callee = Pop();
      CallFeedback &CF = FB.Calls[I.B];
      if (Callee.tag() == Tag::Builtin)
        CF.recordBuiltin(static_cast<uint16_t>(Callee.builtinId()));
      else if (Callee.tag() == Tag::Clos) {
        CF.recordClosure(Callee.closObj()->Fn);
        CF.recordContext(Args);
      }
      S.push_back(callValue(Callee, std::move(Args)));
      ++Pc;
      break;
    }

    case Opcode::BinBc: {
      Value B = Pop();
      Value A = Pop();
      FB.Types[I.B].record(A.tag());
      FB.Types[I.B + 1].record(B.tag());
      S.push_back(genericBinary(static_cast<BinOp>(I.A), A, B));
      ++Pc;
      break;
    }

    case Opcode::NegBc: {
      Value A = Pop();
      S.push_back(genericNeg(A));
      ++Pc;
      break;
    }

    case Opcode::NotBc: {
      Value A = Pop();
      S.push_back(genericNot(A));
      ++Pc;
      break;
    }

    case Opcode::AsLogicalBc: {
      Value A = Pop();
      S.push_back(Value::lgl(A.asCondition()));
      ++Pc;
      break;
    }

    case Opcode::Extract2: {
      Value Idx = Pop();
      Value Obj = Pop();
      FB.Types[I.B].record(Obj.tag());
      S.push_back(extract2(Obj, Idx.toInt()));
      ++Pc;
      break;
    }

    case Opcode::Extract1: {
      Value Idx = Pop();
      Value Obj = Pop();
      FB.Types[I.B].record(Obj.tag());
      S.push_back(extract1(Obj, Idx));
      ++Pc;
      break;
    }

    case Opcode::SetIdx2: {
      Value V = Pop();
      Value Idx = Pop();
      Symbol Sym = static_cast<Symbol>(I.A);
      // R semantics: the container is looked up through the chain but the
      // updated container is always bound locally.
      Value &Slot = E->updateSlot(Sym);
      FB.Types[I.B].record(Slot.tag());
      assign2(Slot, Idx.toInt(), V);
      S.push_back(std::move(V));
      ++Pc;
      break;
    }

    case Opcode::Branch: {
      if (I.A <= Pc) {
        // Backedge: profile and maybe tier up (OSR-in, paper Listing 5).
        BranchFeedback &BF = FB.Branches[I.B];
        ++BF.Taken;
        if (Hooks.OsrIn && BF.Taken >= Hooks.OsrThreshold &&
            BF.Taken % Hooks.OsrThreshold == 0) {
          Value Result;
          if (Hooks.OsrIn(Fn, E, S, I.A, Result))
            return Result;
        }
      }
      Pc = I.A;
      break;
    }

    case Opcode::BranchFalse: {
      Value Cond = Pop();
      Pc = Cond.asCondition() ? Pc + 1 : I.A;
      break;
    }

    case Opcode::ForStep: {
      assert(S.size() >= 2 && "for-loop state missing");
      Value &Counter = S[S.size() - 1];
      Value &Seq = S[S.size() - 2];
      int32_t Next = Counter.asIntUnchecked() + 1;
      if (Next > Seq.length()) {
        Pc = I.B; // exit; the exit code pops [seq counter]
        break;
      }
      Counter = Value::integer(Next);
      E->set(static_cast<Symbol>(I.A), extract2(Seq, Next));
      ++Pc;
      break;
    }

    case Opcode::Return:
      return Pop();
    }
  }
}

} // namespace

Value rjit::interpret(Function *Fn, Env *E) { return run(Fn, E, {}, 0); }

Value rjit::interpretResume(Function *Fn, Env *E, std::vector<Value> &&Stack,
                            int32_t Pc) {
  return run(Fn, E, std::move(Stack), Pc);
}
