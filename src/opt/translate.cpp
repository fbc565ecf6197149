//===-- opt/translate.cpp - Bytecode to IR translation -----------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/translate.h"

#include "compile/snapshot.h"

#include <algorithm>
#include <map>
#include <set>

using namespace rjit;

bool rjit::envIsElidable(const Function &Fn) {
  // A function's environment can be elided when its locals are provably
  // private: no closure captures it, and no variable is both read as a
  // free variable and written locally (R's scoping would make such writes
  // observable through the environment). The top level's "locals" are the
  // globals every later eval reads, so its environment is never private.
  if (Fn.Name == topLevelName())
    return false;
  std::set<Symbol> Written(Fn.Params.begin(), Fn.Params.end());
  std::set<Symbol> ReadFirst;
  for (const BcInstr &I : Fn.BC.Instrs) {
    switch (I.Op) {
    case Opcode::MkClosure:
      return false;
    case Opcode::LdVar: {
      Symbol S = static_cast<Symbol>(I.A);
      if (!Written.count(S))
        ReadFirst.insert(S);
      break;
    }
    case Opcode::StVar:
    case Opcode::SetIdx2:
    case Opcode::ForStep: {
      Symbol S = static_cast<Symbol>(I.A);
      if (ReadFirst.count(S))
        return false;
      Written.insert(S);
      break;
    }
    default:
      break;
    }
  }
  return true;
}

namespace {

/// Abstract interpreter state: SSA values for the operand stack and the
/// local bindings.
struct AbsState {
  std::vector<Instr *> Stack;
  std::map<Symbol, Instr *> Locals;
};

class Translator {
public:
  Translator(Function *Fn, CallConv Conv, const EntryState &Entry,
             const OptOptions &Opts)
      : Fn(Fn), Conv(Conv), Entry(Entry), Opts(Opts) {}

  std::unique_ptr<IrCode> run() {
    bool Elidable = envIsElidable(*Fn);
    switch (Conv) {
    case CallConv::FullEnv:
      RealEnv = true;
      break;
    case CallConv::FullElided:
      if (!Elidable)
        return nullptr;
      RealEnv = false;
      break;
    case CallConv::OsrIn:
      RealEnv = !Elidable;
      break;
    case CallConv::Deoptless:
      // The paper's deoptlessCondition: leaked/non-local environments are
      // not handled — we give up and let the caller do a real deopt.
      if (!Elidable)
        return nullptr;
      RealEnv = false;
      break;
    }

    C = std::make_unique<IrCode>();
    C->Origin = Fn;
    C->EntryPc = Entry.Pc;
    C->Conv = Conv;
    C->UsesRealEnv = RealEnv;

    analyze();
    if (!Blocks.count(Entry.Pc))
      return nullptr;
    findFoldableBuiltins();

    buildPrologue();
    processWorklist();
    finalizeFallthroughs();
    finishBuiltinWatch();
    return std::move(C);
  }

private:
  Function *Fn;
  CallConv Conv;
  const EntryState &Entry;
  const OptOptions &Opts;

  std::unique_ptr<IrCode> C;
  bool RealEnv = false;

  struct BlockInfo {
    int32_t Start = 0;
    int PredCount = 0; ///< reachable BC preds (+1 for prologue at entry)
    int ForwardPreds = 0; ///< the non-backedge subset of PredCount
    BB *Bb = nullptr;
    bool UsesPhis = false;
    bool IsLoopHeader = false; ///< target of a bytecode back-edge
    std::vector<Instr *> StackPhis;
    std::map<Symbol, Instr *> LocalPhis;
    int IncomingSeen = 0;
    bool Scheduled = false;
    bool Translated = false;
    AbsState EntrySt; ///< single-pred entry state (when !UsesPhis)
  };
  std::map<int32_t, BlockInfo> Blocks; ///< keyed by leader pc
  std::vector<int32_t> Worklist;
  std::set<Symbol> AllLocals; ///< every symbol written in the function

  /// Global builtins this function reads under their own names and may
  /// fold to the builtin itself (findFoldableBuiltins), and how many reads
  /// were folded.
  std::map<Symbol, BuiltinId> FoldSyms;
  uint32_t Folds = 0;
  std::map<BuiltinId, Instr *> BuiltinConsts; ///< builtinConst's cache

  BB *CurBb = nullptr;
  AbsState St;
  int32_t CurPc = 0;
  Instr *CachedCheckpoint = nullptr;
  int32_t CachedCheckpointPc = -1;

  //===-- Analysis ---------------------------------------------------------//

  static void succsOf(const Code &BC, int32_t Pc, std::vector<int32_t> &Out) {
    const BcInstr &I = BC.Instrs[Pc];
    Out.clear();
    switch (I.Op) {
    case Opcode::Branch:
      Out.push_back(I.A);
      break;
    case Opcode::BranchFalse:
      Out.push_back(Pc + 1);
      Out.push_back(I.A);
      break;
    case Opcode::ForStep:
      Out.push_back(Pc + 1);
      Out.push_back(I.B);
      break;
    case Opcode::Return:
      break;
    default:
      Out.push_back(Pc + 1);
      break;
    }
  }

  void analyze() {
    const Code &BC = Fn->BC;
    int32_t N = static_cast<int32_t>(BC.Instrs.size());

    // Reachable pcs from the entry.
    std::vector<bool> Reach(N, false);
    {
      std::vector<int32_t> Stack{Entry.Pc};
      std::vector<int32_t> Ss;
      while (!Stack.empty()) {
        int32_t P = Stack.back();
        Stack.pop_back();
        if (P < 0 || P >= N || Reach[P])
          continue;
        Reach[P] = true;
        succsOf(BC, P, Ss);
        for (int32_t S : Ss)
          Stack.push_back(S);
      }
    }

    // Leaders: entry, targets of control flow, and fallthrough points.
    std::set<int32_t> Leaders{Entry.Pc};
    for (int32_t P = 0; P < N; ++P) {
      if (!Reach[P])
        continue;
      const BcInstr &I = BC.Instrs[P];
      switch (I.Op) {
      case Opcode::Branch:
        Leaders.insert(I.A);
        if (P + 1 < N)
          Leaders.insert(P + 1);
        break;
      case Opcode::BranchFalse:
        Leaders.insert(I.A);
        Leaders.insert(P + 1);
        break;
      case Opcode::ForStep:
        Leaders.insert(I.B);
        Leaders.insert(P + 1);
        break;
      case Opcode::Return:
        if (P + 1 < N)
          Leaders.insert(P + 1);
        break;
      default:
        break;
      }
    }

    for (int32_t L : Leaders) {
      if (L >= N || !Reach[L])
        continue;
      BlockInfo BI;
      BI.Start = L;
      BI.Bb = C->newBlock();
      Blocks.emplace(L, std::move(BI));
    }

    // Reachable predecessor counts per leader.
    std::vector<int32_t> Ss;
    for (int32_t P = 0; P < N; ++P) {
      if (!Reach[P])
        continue;
      bool AtBlockEnd = false;
      const BcInstr &I = BC.Instrs[P];
      AtBlockEnd = I.Op == Opcode::Branch || I.Op == Opcode::BranchFalse ||
                   I.Op == Opcode::ForStep || I.Op == Opcode::Return ||
                   Blocks.count(P + 1);
      if (!AtBlockEnd)
        continue;
      succsOf(BC, P, Ss);
      for (int32_t S : Ss)
        if (auto It = Blocks.find(S); It != Blocks.end()) {
          ++It->second.PredCount;
          if (S <= P)
            It->second.IsLoopHeader = true; // bytecode back-edge target
          else
            ++It->second.ForwardPreds;
        }
    }
    // The prologue feeds the entry block.
    ++Blocks[Entry.Pc].PredCount;
    ++Blocks[Entry.Pc].ForwardPreds;
    for (auto &[Pc, BI] : Blocks)
      BI.UsesPhis = BI.PredCount != 1;

    // Locals: every symbol written anywhere (used to pre-seed Undef so all
    // states have a uniform shape).
    if (!RealEnv) {
      for (const BcInstr &I : BC.Instrs) {
        switch (I.Op) {
        case Opcode::StVar:
        case Opcode::SetIdx2:
        case Opcode::ForStep:
          AllLocals.insert(static_cast<Symbol>(I.A));
          break;
        default:
          break;
        }
      }
      for (Symbol P : Fn->Params)
        AllLocals.insert(P);
      for (auto &[Sym, T] : Entry.EnvTypes)
        AllLocals.insert(Sym);
    }
  }

  /// Builtin bindings are watched global assumptions (Ř's builtin
  /// watchpoint; runtime/context.h): a free variable that names a builtin
  /// folds to that builtin when every read of it is a read of the global
  /// environment — the function's environments have the global one as
  /// parent (or are it), and the function neither assigns the name nor
  /// binds it as a parameter — and the requester's executor saw the
  /// global binding still hold the builtin (OptOptions::IntactBuiltins).
  /// Nothing guards the folded value per call: a rebinding retires the
  /// code, and running activations check the watch's epoch after every
  /// closure call and environment store (epochCheck).
  void findFoldableBuiltins() {
    if (!Opts.Speculate || !Fn->GlobalScope || !Opts.IntactBuiltins)
      return;
    std::set<Symbol> Bound(Fn->Params.begin(), Fn->Params.end());
    for (const BcInstr &I : Fn->BC.Instrs)
      if (I.Op == Opcode::StVar || I.Op == Opcode::SetIdx2 ||
          I.Op == Opcode::ForStep)
        Bound.insert(static_cast<Symbol>(I.A));
    for (const BcInstr &I : Fn->BC.Instrs) {
      Symbol S = static_cast<Symbol>(I.A);
      BuiltinId Id;
      if (I.Op == Opcode::LdVar && !Bound.count(S) && builtinNamed(S, Id) &&
          (Opts.IntactBuiltins >> static_cast<unsigned>(Id) & 1))
        FoldSyms.emplace(S, Id);
    }
  }

  /// Code that folded a builtin watches the epoch; code that folded none
  /// drops the epoch checks translation placed.
  void finishBuiltinWatch() {
    if (Folds) {
      C->FoldsBuiltins = true;
      C->BuiltinEpoch = Opts.BuiltinEpoch;
      return;
    }
    for (auto &B : C->Blocks) {
      auto &Is = B->Instrs;
      Is.erase(std::remove_if(Is.begin(), Is.end(),
                              [](const std::unique_ptr<Instr> &I) {
                                return I->Op == IrOp::EpochCheckIr;
                              }),
               Is.end());
    }
  }

  /// After the instruction at \p Pc, which may have rebound a global (a
  /// closure call or an environment store), deopts to pc + 1 when the
  /// builtin watch's epoch moved. Builtin calls store no bindings and
  /// need no check.
  void epochCheck(int32_t Pc) {
    if (FoldSyms.empty())
      return;
    CurPc = Pc + 1;
    Instr *Chk = add(IrOp::EpochCheckIr, RType::none(), {checkpoint()});
    Chk->RKind = DeoptReasonKind::BuiltinEpoch;
    Chk->BcPc = Pc;
    Chk->Idx = -1;
    CurPc = Pc;
  }

  //===-- IR helpers --------------------------------------------------------//

  Instr *add(BB *B, IrOp Op, RType T,
             std::initializer_list<Instr *> Ops = {}) {
    auto I = C->make(Op, T);
    I->Ops.assign(Ops);
    return B->append(std::move(I));
  }
  Instr *add(IrOp Op, RType T, std::initializer_list<Instr *> Ops = {}) {
    return add(CurBb, Op, T, Ops);
  }

  Instr *constant(Value V) {
    RType T = V.isNull() ? RType::of(Tag::Null) : RType::of(V.tag());
    Instr *I = add(IrOp::Const, T);
    I->Cst = std::move(V);
    return I;
  }

  /// The one constant of builtin \p Id, in the prologue, which dominates
  /// every use: all folded reads of a builtin share it, so a merge of
  /// them is a trivial phi and a call through the merge becomes a direct
  /// call once the phi is gone (opt/constfold).
  Instr *builtinConst(BuiltinId Id) {
    Instr *&K = BuiltinConsts[Id];
    if (!K) {
      auto I = C->make(IrOp::Const, RType::of(Tag::Builtin));
      I->Cst = Value::builtin(Id);
      I->Parent = C->Entry;
      auto &Is = C->Entry->Instrs;
      K = Is.insert(C->Entry->terminated() ? Is.end() - 1 : Is.end(),
                    std::move(I))
              ->get();
    }
    return K;
  }

  //===-- Prologue / entry state --------------------------------------------//

  void buildPrologue() {
    BB *Pro = C->newBlock();
    C->Entry = Pro;
    CurBb = Pro;
    St = AbsState();

    auto MakeParam = [&](RType T) {
      Instr *P = add(IrOp::Param, T);
      P->Idx = static_cast<int32_t>(C->Params.size());
      C->Params.push_back(P);
      return P;
    };

    switch (Conv) {
    case CallConv::FullEnv:
      break; // everything through the environment
    case CallConv::FullElided:
      for (size_t K = 0; K < Fn->Params.size(); ++K) {
        Symbol S = Fn->Params[K];
        // Context-specialized compiles seed parameters with the types the
        // version dispatch guarantees; otherwise any().
        RType T = K < Entry.ParamTypes.size() ? Entry.ParamTypes[K]
                                              : RType::any();
        Instr *P = MakeParam(T);
        St.Locals[S] = P;
        C->EnvParamSyms.push_back(S);
      }
      // Speculate on parameter types eagerly: one guard at entry (where
      // deopting simply re-runs the whole function in the interpreter)
      // instead of a guard at every in-loop read.
      if (Opts.Speculate)
        speculateParamsAtEntry();
      break;
    case CallConv::OsrIn:
    case CallConv::Deoptless:
      for (size_t K = 0; K < Entry.StackTypes.size(); ++K) {
        Instr *P = MakeParam(Entry.StackTypes[K]);
        uint16_t Bi = K < Entry.StackBuiltins.size() ? Entry.StackBuiltins[K]
                                                     : 0;
        St.Stack.push_back(Bi ? builtinConst(static_cast<BuiltinId>(Bi - 1))
                              : P);
      }
      C->NumStackParams = static_cast<uint32_t>(Entry.StackTypes.size());
      if (!RealEnv) {
        for (auto &[Sym, T] : Entry.EnvTypes) {
          Instr *P = MakeParam(T);
          St.Locals[Sym] = P;
          C->EnvParamSyms.push_back(Sym);
        }
      }
      break;
    }

    if (!RealEnv) {
      // Uniform state shape: every local exists, possibly Undef.
      Instr *Und = nullptr;
      for (Symbol S : AllLocals) {
        if (St.Locals.count(S))
          continue;
        if (!Und)
          Und = add(IrOp::Undef, RType::of(Tag::Null));
        St.Locals[S] = Und;
      }
    }

    add(IrOp::Jump, RType::none());
    BlockInfo &First = Blocks.at(Entry.Pc);
    CurBb->setSuccs(First.Bb);
    deliver(Entry.Pc, St);
  }

  /// Entry-point speculation for FullElided parameters, driven by the
  /// feedback of the parameter's first read site.
  void speculateParamsAtEntry() {
    // Map each parameter to its first LdVar feedback slot.
    CurPc = Entry.Pc;
    CachedCheckpoint = nullptr;
    CachedCheckpointPc = -1;
    for (size_t Idx = 0; Idx < Fn->Params.size(); ++Idx) {
      Symbol S = Fn->Params[Idx];
      // Context-typed parameters are guaranteed by the version dispatch;
      // guarding them against (possibly conflicting) profile data would
      // reintroduce the deopts contextual dispatch exists to avoid.
      if (Idx < Entry.ParamTypes.size() && !Entry.ParamTypes[Idx].isAny())
        continue;
      int32_t FbIdx = -1;
      for (const BcInstr &I : Fn->BC.Instrs) {
        if (I.Op == Opcode::LdVar && static_cast<Symbol>(I.A) == S) {
          FbIdx = I.B;
          break;
        }
      }
      if (FbIdx < 0)
        continue;
      const TypeFeedback &FB = profileOf(Fn).Types[FbIdx];
      if (FB.empty() || FB.Stale || !FB.monomorphic())
        continue;
      Tag T = FB.uniqueTag();
      if (!isGuardableTag(T))
        continue;
      Instr *P = St.Locals[S];
      if (!worthTagAssume(P->Type, T))
        continue;
      St.Locals[S] = assumeTag(P, T, FbIdx);
    }
  }

  //===-- State delivery & phis ---------------------------------------------//

  void deliver(int32_t ToPc, const AbsState &S) {
    BlockInfo &BI = Blocks.at(ToPc);
    if (!BI.UsesPhis) {
      BI.EntrySt = S;
    } else if (BI.IncomingSeen == 0) {
      // First incoming edge: create the phis.
      for (Instr *V : S.Stack) {
        Instr *Phi = addPhiTo(BI.Bb, V->Type);
        Phi->Ops.push_back(V);
        Phi->Incoming.push_back(lastPredOf(BI.Bb));
        BI.StackPhis.push_back(Phi);
      }
      for (auto &[Sym, V] : S.Locals) {
        Instr *Phi = addPhiTo(BI.Bb, V->Type);
        Phi->Ops.push_back(V);
        Phi->Incoming.push_back(lastPredOf(BI.Bb));
        BI.LocalPhis[Sym] = Phi;
      }
    } else {
      assert(S.Stack.size() == BI.StackPhis.size() &&
             "operand stack height mismatch at merge");
      for (size_t K = 0; K < S.Stack.size(); ++K) {
        BI.StackPhis[K]->Ops.push_back(S.Stack[K]);
        BI.StackPhis[K]->Incoming.push_back(lastPredOf(BI.Bb));
        BI.StackPhis[K]->Type = BI.StackPhis[K]->Type.join(S.Stack[K]->Type);
      }
      for (auto &[Sym, Phi] : BI.LocalPhis) {
        auto It = S.Locals.find(Sym);
        assert(It != S.Locals.end() && "local missing at merge");
        Phi->Ops.push_back(It->second);
        Phi->Incoming.push_back(lastPredOf(BI.Bb));
        Phi->Type = Phi->Type.join(It->second->Type);
      }
    }
    ++BI.IncomingSeen;
    if (!BI.Scheduled) {
      BI.Scheduled = true;
      Worklist.push_back(ToPc);
    }
  }

  static BB *lastPredOf(BB *B) {
    assert(!B->Preds.empty() && "no predecessor recorded");
    return B->Preds.back();
  }

  Instr *addPhiTo(BB *B, RType T) {
    // Phis go before any non-phi instruction.
    auto I = C->make(IrOp::Phi, T);
    I->Parent = B;
    size_t Pos = 0;
    while (Pos < B->Instrs.size() && B->Instrs[Pos]->Op == IrOp::Phi)
      ++Pos;
    B->Instrs.insert(B->Instrs.begin() + Pos, std::move(I));
    return B->Instrs[Pos].get();
  }

  //===-- Worklist -----------------------------------------------------------//

  void processWorklist() {
    while (!Worklist.empty()) {
      int32_t Pc = Worklist.back();
      Worklist.pop_back();
      BlockInfo &BI = Blocks.at(Pc);
      if (BI.Translated)
        continue;
      BI.Translated = true;
      translateBlock(BI);
    }
  }

  void translateBlock(BlockInfo &BI) {
    CurBb = BI.Bb;
    CachedCheckpoint = nullptr;
    CachedCheckpointPc = -1;
    if (BI.UsesPhis) {
      St = AbsState();
      St.Stack = BI.StackPhis;
      for (auto &[Sym, Phi] : BI.LocalPhis)
        St.Locals[Sym] = Phi;
    } else {
      St = BI.EntrySt;
    }

    // Loop-header anchor: a checkpoint capturing the header-entry state
    // (pc = header leader, values = the header phis). The loop optimizer
    // re-anchors hoisted guards here — mapped through the phis to the
    // preheader's incoming values, this is exactly the state with which a
    // pre-loop deopt must resume: the interpreter re-executes the loop
    // test, so a zero-trip loop stays correct. Anchored checkpoints are
    // DCE roots until opt/licm consumes and clears them.
    if (BI.IsLoopHeader && BI.UsesPhis && Opts.Speculate &&
        Opts.Loop) {
      CurPc = BI.Start;
      checkpoint()->Anchor = true;
    }

    const Code &BC = Fn->BC;
    int32_t N = static_cast<int32_t>(BC.Instrs.size());
    int32_t Pc = BI.Start;
    while (Pc < N) {
      if (Pc != BI.Start && Blocks.count(Pc)) {
        // Fallthrough into the next leader.
        add(IrOp::Jump, RType::none());
        CurBb->setSuccs(Blocks.at(Pc).Bb);
        deliver(Pc, St);
        return;
      }
      CurPc = Pc;
      if (!translateInstr(BC.Instrs[Pc], Pc))
        return; // block terminated
      ++Pc;
    }
  }

  void finalizeFallthroughs() {
    // All blocks must be terminated; translateBlock handles every case
    // (Return/Branch/fallthrough), so nothing to do — kept as an assert.
    assert(std::all_of(Blocks.begin(), Blocks.end(),
                       [](const auto &KV) {
                         return !KV.second.Translated ||
                                KV.second.Bb->terminated();
                       }) &&
           "untranslated or unterminated block");
  }

  //===-- Speculation helpers -----------------------------------------------//

  /// Returns (creating if needed) the checkpoint for the current pc. The
  /// framestate snapshots the interpreter state with which pc would be
  /// re-executed after a deopt.
  Instr *checkpoint() {
    if (CachedCheckpoint && CachedCheckpointPc == CurPc)
      return CachedCheckpoint;
    Instr *Fs = add(IrOp::FrameStateIr, RType::none());
    Fs->BcPc = CurPc;
    Fs->StackCount = static_cast<uint32_t>(St.Stack.size());
    Fs->Ops.assign(St.Stack.begin(), St.Stack.end());
    if (!RealEnv) {
      for (auto &[Sym, V] : St.Locals) {
        if (V->Op == IrOp::Undef)
          continue; // leave genuinely unbound locals unbound
        Fs->Ops.push_back(V);
        Fs->EnvSyms.push_back(Sym);
      }
    }
    Instr *Cp = add(IrOp::CheckpointIr, RType::none(), {Fs});
    CachedCheckpoint = Cp;
    CachedCheckpointPc = CurPc;
    return Cp;
  }

  /// Speculates that \p V has tag \p T; returns the refined value.
  /// \p FbSlot is the type-feedback slot the speculation came from, kept on
  /// the Assume so the deoptless cleanup pass can invalidate it precisely.
  Instr *assumeTag(Instr *V, Tag T, int32_t FbSlot) {
    Instr *Cond = add(IrOp::IsTagIr, RType::of(Tag::Lgl), {V});
    Cond->TagArg = T;
    Instr *As = add(IrOp::AssumeIr, RType::none(), {Cond, checkpoint()});
    As->RKind = DeoptReasonKind::Typecheck;
    As->TagArg = T;
    As->BcPc = CurPc;
    As->Idx = FbSlot;
    Instr *Cast = add(IrOp::CastType, RType::of(T), {V});
    Cast->TagArg = T;
    return Cast;
  }

  /// True when speculating tag \p T on a value of static type \p Have is
  /// profitable (strict refinement, and a tag the backend benefits from).
  /// Feedback that contradicts the static type is stale: speculating on it
  /// would produce a guard that always fails.
  static bool worthTagAssume(RType Have, Tag T) {
    if (Have.isExactly(T))
      return false;
    if (T == Tag::Clos || T == Tag::Builtin)
      return false; // identity guards at call sites are the useful ones
    if (!Have.isNone() && Have.meet(RType::of(T)).isNone())
      return false; // stale profile: the guard could never pass
    return true;
  }

  /// Tag speculation never targets a phi. A phi merges values from
  /// several paths while the profile is a single per-site tag histogram,
  /// so a monomorphic profile on a merged value usually reflects only the
  /// warmup path: guarding it is self-defeating for loop-carried
  /// accumulators (an `acc <- 0L` accumulating doubles passes the Int
  /// guard on iteration one and fails forever after — recursive-deoptless
  /// territory) and for post-loop reads of the same accumulator. The
  /// profitable speculations — parameters, environment reads, vector
  /// elements — are all on non-merged values.
  static bool speculatableValue(const Instr *V) {
    return V->Op != IrOp::Phi;
  }

  /// Applies LdVar-style type speculation from feedback slot \p FbIdx.
  Instr *maybeSpeculateType(Instr *V, int32_t FbIdx) {
    if (!Opts.Speculate || FbIdx < 0 || !speculatableValue(V))
      return V;
    const TypeFeedback &FB = profileOf(Fn).Types[FbIdx];
    if (FB.empty() || FB.Stale || !FB.monomorphic())
      return V;
    Tag T = FB.uniqueTag();
    if (!worthTagAssume(V->Type, T))
      return V;
    return assumeTag(V, T, FbIdx);
  }

  //===-- Instruction translation --------------------------------------------//

  Instr *pop() {
    assert(!St.Stack.empty() && "abstract stack underflow");
    Instr *V = St.Stack.back();
    St.Stack.pop_back();
    return V;
  }
  void push(Instr *V) { St.Stack.push_back(V); }

  /// Reads a variable: SSA local, or environment (free variables and
  /// RealEnv mode).
  Instr *readVar(Symbol S, int32_t FbIdx) {
    if (auto It = FoldSyms.find(S); It != FoldSyms.end()) {
      ++Folds;
      return builtinConst(It->second);
    }
    if (!RealEnv) {
      auto It = St.Locals.find(S);
      if (It != St.Locals.end()) {
        Instr *V = maybeSpeculateType(It->second, FbIdx);
        St.Locals[S] = V; // remember the refinement
        return V;
      }
    }
    Instr *L = add(IrOp::LdVarEnv, RType::any());
    L->Sym = S;
    return maybeSpeculateType(L, FbIdx);
  }

  /// Returns true to continue within the block; false when the instruction
  /// terminated the block.
  bool translateInstr(const BcInstr &I, int32_t Pc) {
    switch (I.Op) {
    case Opcode::PushConst:
      push(constant(Fn->BC.Consts[I.A]));
      return true;

    case Opcode::LdVar:
      push(readVar(static_cast<Symbol>(I.A), I.B));
      return true;

    case Opcode::StVar: {
      Instr *V = pop();
      Symbol S = static_cast<Symbol>(I.A);
      if (!RealEnv) {
        St.Locals[S] = V;
      } else {
        Instr *StI = add(IrOp::StVarEnv, RType::none(), {V});
        StI->Sym = S;
        epochCheck(Pc);
      }
      return true;
    }

    case Opcode::StVarSuper: {
      Instr *V = pop();
      Instr *StI = add(IrOp::StVarSuperEnv, RType::none(), {V});
      StI->Sym = static_cast<Symbol>(I.A);
      epochCheck(Pc);
      return true;
    }

    case Opcode::Dup:
      push(St.Stack.back());
      return true;

    case Opcode::Pop:
      pop();
      return true;

    case Opcode::PopN:
      for (int32_t K = 0; K < I.A; ++K)
        pop();
      return true;

    case Opcode::MkClosure: {
      assert(RealEnv && "closure creation requires a real environment");
      Instr *Mk = add(IrOp::MkClosureIr, RType::of(Tag::Clos));
      Mk->Idx = I.A;
      push(Mk);
      return true;
    }

    case Opcode::Call:
      translateCall(I, Pc);
      return true;

    case Opcode::BinBc:
      translateBinop(I);
      return true;

    case Opcode::NegBc: {
      Instr *V = pop();
      push(add(IrOp::NegGen, V->Type.numericOnly() ? V->Type : RType::any(),
               {V}));
      return true;
    }

    case Opcode::NotBc: {
      Instr *V = pop();
      push(add(IrOp::NotGen, RType::of(Tag::Lgl), {V}));
      return true;
    }

    case Opcode::AsLogicalBc: {
      Instr *V = pop();
      push(add(IrOp::AsCond, RType::of(Tag::Lgl), {V}));
      return true;
    }

    case Opcode::Extract2:
    case Opcode::Extract1: {
      // Speculate on the container while [obj idx] are still on the
      // abstract stack so the checkpoint matches the interpreter state.
      assert(St.Stack.size() >= 2 && "extract needs two operands");
      Instr *&ObjSlot = St.Stack[St.Stack.size() - 2];
      ObjSlot = maybeSpeculateType(ObjSlot, I.B);
      Instr *Idx = pop();
      Instr *Obj = pop();
      IrOp Op = I.Op == Opcode::Extract2 ? IrOp::Extract2Gen
                                         : IrOp::Extract1Gen;
      push(add(Op, RType::any(), {Obj, Idx}));
      return true;
    }

    case Opcode::SetIdx2: {
      Instr *V = pop();
      Instr *Idx = pop();
      Symbol S = static_cast<Symbol>(I.A);
      if (!RealEnv) {
        assert(St.Locals.count(S) && "indexed assignment to unseen local");
        Instr *Cur = St.Locals[S];
        Instr *NewC = add(IrOp::SetElem2Gen, RType::any(), {Cur, Idx, V});
        St.Locals[S] = NewC;
        push(V);
      } else {
        Instr *SetI = add(IrOp::SetIdx2Env, V->Type, {Idx, V});
        SetI->Sym = S;
        push(V);
        epochCheck(Pc);
      }
      return true;
    }

    case Opcode::Branch: {
      add(IrOp::Jump, RType::none());
      CurBb->setSuccs(Blocks.at(I.A).Bb);
      deliver(I.A, St);
      return false;
    }

    case Opcode::BranchFalse: {
      Instr *V = pop();
      Instr *Cond = V->Type.isExactly(Tag::Lgl)
                        ? V
                        : add(IrOp::AsCond, RType::of(Tag::Lgl), {V});
      add(IrOp::BranchIr, RType::none(), {Cond});
      BB *TrueBb = Blocks.at(Pc + 1).Bb;
      BB *FalseBb = Blocks.at(I.A).Bb;
      CurBb->setSuccs(TrueBb, FalseBb);
      deliver(Pc + 1, St);
      deliver(I.A, St);
      return false;
    }

    case Opcode::ForStep:
      translateForStep(I, Pc);
      return false;

    case Opcode::Return: {
      Instr *V = pop();
      add(IrOp::Ret, RType::none(), {V});
      return false;
    }

    default:
      assert(false && "unhandled opcode in translation");
      return true;
    }
  }

  void translateBinop(const BcInstr &I) {
    Instr *B = pop();
    Instr *A = pop();
    BinOp Op = static_cast<BinOp>(I.A);
    // Operand-type speculation when static types are imprecise: restore
    // the stack shape the interpreter expects at this pc first.
    if (Opts.Speculate && I.B >= 0) {
      push(A);
      push(B);
      const TypeFeedback &FbA = profileOf(Fn).Types[I.B];
      const TypeFeedback &FbB = profileOf(Fn).Types[I.B + 1];
      if (speculatableValue(A) && !FbA.empty() && !FbA.Stale &&
          FbA.monomorphic() && worthTagAssume(A->Type, FbA.uniqueTag()) &&
          isGuardableTag(FbA.uniqueTag()))
        St.Stack[St.Stack.size() - 2] = A =
            assumeTag(A, FbA.uniqueTag(), I.B);
      if (speculatableValue(B) && !FbB.empty() && !FbB.Stale &&
          FbB.monomorphic() && worthTagAssume(B->Type, FbB.uniqueTag()) &&
          isGuardableTag(FbB.uniqueTag()))
        St.Stack[St.Stack.size() - 1] = B =
            assumeTag(B, FbB.uniqueTag(), I.B + 1);
      pop();
      pop();
    }
    RType T = binGenType(Op, A->Type, B->Type);
    Instr *R = add(IrOp::BinGen, T, {A, B});
    R->Bop = Op;
    push(R);
  }

  static bool isGuardableTag(Tag T) {
    return isScalarTag(T) || isNumVecTag(T);
  }

  /// Coarse static result type of a generic binary op.
  static RType binGenType(BinOp Op, RType A, RType B) {
    switch (Op) {
    case BinOp::Eq:
    case BinOp::Ne:
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge:
    case BinOp::And:
    case BinOp::Or:
      return RType::of(Tag::Lgl).join(RType::of(Tag::LglVec));
    case BinOp::Colon:
      // `:` yields integers whenever `from` is integral (colonSeq).
      if (A.subtypeOf(RType::of(Tag::Lgl).join(RType::of(Tag::Int))))
        return RType::of(Tag::IntVec);
      return RType::of(Tag::IntVec).join(RType::of(Tag::RealVec));
    default:
      if (A.numericOnly() && B.numericOnly())
        return A.join(B).join(RType::of(Tag::Real))
            .join(RType::of(Tag::RealVec));
      return RType::any();
    }
  }

  void translateCall(const BcInstr &I, int32_t Pc) {
    size_t NArgs = static_cast<size_t>(I.A);
    std::vector<Instr *> Args(NArgs);
    for (size_t K = NArgs; K > 0; --K)
      Args[K - 1] = pop();
    Instr *Callee = pop();

    // A folded global builtin (findFoldableBuiltins) is the paper's
    // "stability of call targets" as a watched assumption: a direct call,
    // no guard. A builtin held anywhere else — a local, a parameter, an
    // alias — takes the generic call.
    if (Callee->Op == IrOp::Const && Callee->Cst.tag() == Tag::Builtin) {
      Instr *R = add(IrOp::CallBuiltinKnown, RType::any());
      R->Bid = Callee->Cst.builtinId();
      R->Ops = Args;
      push(R);
      return;
    }
    const CallFeedback &CF = profileOf(Fn).Calls[I.B];
    if (Opts.Speculate && CF.monomorphicClosure()) {
      Function *Target =
          const_cast<Function *>(static_cast<const Function *>(CF.Target));
      if (Target->Params.size() == NArgs) {
        push(Callee);
        for (Instr *A : Args)
          push(A);
        Instr *Cond = add(IrOp::IsFunIr, RType::of(Tag::Lgl), {Callee});
        Cond->Target = Target;
        Instr *As = add(IrOp::AssumeIr, RType::none(), {Cond, checkpoint()});
        As->RKind = DeoptReasonKind::CallTarget;
        As->BcPc = CurPc;
        As->Target = Target;
        for (size_t K = 0; K < NArgs + 1; ++K)
          pop();
        // The callee stays an operand: the backend reads the closure's
        // defining environment from it when building the callee frame.
        Instr *R = add(IrOp::CallStatic, RType::any());
        R->Target = Target;
        R->Ops.push_back(Callee);
        for (Instr *A : Args)
          R->Ops.push_back(A);
        push(R);
        epochCheck(Pc);
        return;
      }
    }
    Instr *R = add(IrOp::CallVal, RType::any());
    R->Ops.push_back(Callee);
    for (Instr *A : Args)
      R->Ops.push_back(A);
    push(R);
    epochCheck(Pc);
  }

  void translateForStep(const BcInstr &I, int32_t Pc) {
    assert(St.Stack.size() >= 2 && "for-loop state missing");
    Instr *Ctr = St.Stack[St.Stack.size() - 1];
    Instr *Seq = St.Stack[St.Stack.size() - 2];
    // The sequence slot is never reassigned inside the loop, so its
    // header phi is trivial when exactly one value can reach it: the
    // preheader's, or the entry state's when the entry lies inside the
    // loop body. An OSR-in or continuation entry nested in an enclosing
    // loop reaches this header both ways, with different sequences, and
    // the phi is a real merge. Only a trivial phi is peeked through to
    // the invariant definition (and later removed by trivial-phi
    // elimination).
    auto Header = Blocks.find(Pc);
    bool EntryInBody = Pc < Entry.Pc && Entry.Pc < I.B;
    bool OneSource = Header == Blocks.end() ||
                     Header->second.ForwardPreds + EntryInBody == 1;
    while (OneSource && Seq->Op == IrOp::Phi && !Seq->Ops.empty()) {
      Instr *First = Seq->Ops[0];
      bool AllSame = true;
      for (Instr *Op : Seq->Ops)
        if (Op != First && Op != Seq)
          AllSame = false;
      if (!AllSame || First == Seq)
        break;
      Seq = First;
    }

    Instr *One = constant(Value::integer(1));
    Instr *NewCtr = add(IrOp::BinTyped, RType::of(Tag::Int), {Ctr, One});
    NewCtr->Bop = BinOp::Add;
    NewCtr->Knd = Tag::Int;
    // Ř's "loops over integer sequences" assumption: when the sequence's
    // type is not precise, speculate that it is an integer vector (the
    // ubiquitous `1:n` case — with a plain `1` literal the lower bound is
    // a double, but colonSeq still yields integers for integral bounds).
    // The guard is a per-iteration tag check on a loop-invariant value;
    // it can only fail on first entry.
    Instr *SeqForLen = Seq; // pre-cast: length() is type-agnostic
    if (Opts.Speculate && !Seq->Type.precise() &&
        Seq->Type.contains(Tag::IntVec)) {
      // Hoist the guard into the unique preheader when there is one: the
      // sequence is loop invariant, so the guard can only fail on first
      // entry, where the preheader's state (header-phi incoming values)
      // is the correct deopt state.
      BB *H = OneSource && CurBb->Preds.size() == 1 ? CurBb->Preds[0]
                                                     : nullptr;
      if (H && H != CurBb && H->terminated()) {
        auto MapV = [&](Instr *V) {
          return (V->Op == IrOp::Phi && V->Parent == CurBb && !V->Ops.empty())
                     ? V->Ops[0]
                     : V;
        };
        auto InsertInH = [&](IrOp Op, RType T,
                             std::initializer_list<Instr *> Ops) {
          auto NewI = C->make(Op, T);
          NewI->Ops.assign(Ops);
          NewI->Parent = H;
          auto &Is = H->Instrs;
          Is.insert(Is.end() - 1, std::move(NewI));
          return Is[Is.size() - 2].get();
        };
        Instr *SeqH = MapV(Seq);
        Instr *Cond = InsertInH(IrOp::IsTagIr, RType::of(Tag::Lgl), {SeqH});
        Cond->TagArg = Tag::IntVec;
        Instr *Fs = InsertInH(IrOp::FrameStateIr, RType::none(), {});
        Fs->BcPc = Pc;
        Fs->StackCount = static_cast<uint32_t>(St.Stack.size());
        for (Instr *V : St.Stack)
          Fs->Ops.push_back(MapV(V));
        if (!RealEnv) {
          for (auto &[Sym, V] : St.Locals) {
            if (V->Op == IrOp::Undef)
              continue;
            Fs->Ops.push_back(MapV(V));
            Fs->EnvSyms.push_back(Sym);
          }
        }
        Instr *Cp = InsertInH(IrOp::CheckpointIr, RType::none(), {Fs});
        Instr *As = InsertInH(IrOp::AssumeIr, RType::none(), {Cond, Cp});
        As->RKind = DeoptReasonKind::Typecheck;
        As->TagArg = Tag::IntVec;
        As->BcPc = Pc;
        As->Idx = -1;
        Instr *Cast =
            InsertInH(IrOp::CastType, RType::of(Tag::IntVec), {SeqH});
        Cast->TagArg = Tag::IntVec;
        St.Stack[St.Stack.size() - 2] = Cast;
        Seq = Cast;
      } else {
        CurPc = Pc; // checkpoint state: [.., seq, ctr] at the ForStep pc
        CachedCheckpoint = nullptr;
        Instr *Cast = assumeTag(Seq, Tag::IntVec, /*FbSlot=*/-1);
        St.Stack[St.Stack.size() - 2] = Cast;
        Seq = Cast;
      }
    }
    // The sequence length is loop invariant: hoist it next to the
    // sequence's definition when that is outside the loop header.
    Instr *Len;
    if (SeqForLen->Parent != CurBb && SeqForLen->Parent->terminated()) {
      auto L = C->make(IrOp::LengthIr, RType::of(Tag::Int));
      L->Ops.push_back(SeqForLen);
      L->Parent = SeqForLen->Parent;
      auto &Is = SeqForLen->Parent->Instrs;
      Is.insert(Is.end() - 1, std::move(L)); // before the terminator
      Len = Is[Is.size() - 2].get();
    } else {
      Len = add(IrOp::LengthIr, RType::of(Tag::Int), {SeqForLen});
    }
    Instr *Cmp = add(IrOp::BinTyped, RType::of(Tag::Lgl), {NewCtr, Len});
    Cmp->Bop = BinOp::Gt;
    Cmp->Knd = Tag::Int;
    add(IrOp::BranchIr, RType::none(), {Cmp});

    // True -> exit (state keeps [seq newctr]); false -> continue block.
    BB *ExitBb = Blocks.at(I.B).Bb;
    BB *ContBb = C->newBlock();
    CurBb->setSuccs(ExitBb, ContBb);
    AbsState ExitSt = St;
    ExitSt.Stack[ExitSt.Stack.size() - 1] = NewCtr;
    deliver(I.B, ExitSt);

    // Continue: fetch the element, bind the loop variable.
    CurBb = ContBb;
    St.Stack[St.Stack.size() - 1] = NewCtr;
    Instr *Elem = add(IrOp::Extract2Gen, RType::any(), {Seq, NewCtr});
    Symbol Var = static_cast<Symbol>(I.A);
    if (!RealEnv) {
      St.Locals[Var] = Elem;
    } else {
      Instr *StI = add(IrOp::StVarEnv, RType::none(), {Elem});
      StI->Sym = Var;
    }
    add(IrOp::Jump, RType::none());
    ContBb->setSuccs(Blocks.at(Pc + 1).Bb);
    deliver(Pc + 1, St);
  }
};

} // namespace

std::unique_ptr<IrCode> rjit::translate(Function *Fn, CallConv Conv,
                                        const EntryState &Entry,
                                        const OptOptions &Opts) {
  Translator T(Fn, Conv, Entry, Opts);
  return T.run();
}
