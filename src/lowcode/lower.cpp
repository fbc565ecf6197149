//===-- lowcode/lower.cpp - IR to LowCode lowering ------------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Slot discipline: every SSA value has a *home* determined by its static
// type — exactly-Int values live in a raw int32 array, exactly-Real values
// in a raw double array, everything else in boxed Value slots. Producers
// that can only deliver boxed results (calls, environment reads, generic
// ops) are followed by an Unbox when their result type is raw; consumers
// that need boxed inputs (calls, environment stores, returns) get a Box.
// Guards always guard boxed values (a guard exists precisely because the
// type is not statically known). Framestates box nothing: deopt metadata
// names each value by slot and class (LiveRef), and the deopt runtime
// boxes raw values itself once a guard has failed.
//
// Last-use rule: a boxed value is *moved* out of its slot, not copied,
// at its last use, so a vector that is updated in a loop reaches its
// element store with a refcount of one and is written in place. One
// backward liveness pass over the boxed slots answers "is this value
// still needed after here?" for the two moving uses: the container of an
// element store (SetElem2*, packElem's steal bit) and a phi edge move
// (Move, C=1). What counts as a read:
//  * a phi operand is read at the end of its incoming block, on that
//    edge only;
//  * FrameState, Checkpoint and the guard predicates emit no code: their
//    operands are read where the Assume that references them runs,
//    through the whole parent-framestate chain (deopt, deoptless
//    dispatch and inlined-caller materialization read those slots);
//  * an aliasing CastType shares its root's slot and defines nothing;
//  * Const and Undef slots are loaded once in the prologue and never
//    moved; Param slots may be.
// An edge move steals only when its source is not live into the target
// block and no other phi on the same edge reads it.
//
//===----------------------------------------------------------------------===//

#include "lowcode/lower.h"

#include <cstring>

using namespace rjit;

namespace {

int kindRank(Tag T) {
  switch (T) {
  case Tag::Lgl:
    return 0;
  case Tag::Int:
    return 1;
  case Tag::Real:
    return 2;
  case Tag::Cplx:
    return 3;
  default:
    assert(false && "not a scalar kind");
    return 1;
  }
}

SlotClass classOfType(RType T) {
  if (T.isExactly(Tag::Real))
    return SlotClass::RawReal;
  if (T.isExactly(Tag::Int))
    return SlotClass::RawInt;
  return SlotClass::Boxed;
}

class Lowerer {
public:
  explicit Lowerer(const IrCode &C) : C(const_cast<IrCode &>(C)) {}

  std::unique_ptr<LowFunction> run() {
    F = std::make_unique<LowFunction>();
    F->Origin = C.Origin;
    F->Conv = C.Conv;
    F->EntryPc = C.EntryPc;
    F->NeedsEnv = C.UsesRealEnv;
    F->FoldsBuiltins = C.FoldsBuiltins;
    F->BuiltinEpoch = C.BuiltinEpoch;
    F->EnvParamSyms = C.EnvParamSyms;
    F->NumStackParams = C.NumStackParams;
    F->NumParams = static_cast<uint32_t>(C.Params.size());

    resolveAliases();
    countUses();
    assignSlots();
    computeLiveness();
    emitBlocks();
    emitTrampolines();
    applyFixups();

    F->NumSlots = NextB;
    F->NumSlotsD = NextD;
    F->NumSlotsI = NextI;
    return std::move(F);
  }

private:
  IrCode &C;
  std::unique_ptr<LowFunction> F;

  // Side tables, indexed by Instr::Id.
  static constexpr uint16_t NoSlot = 0xFFFF;
  std::vector<const Instr *> Alias; ///< CastType -> root; null = itself
  std::vector<uint16_t> Slot;
  std::vector<SlotClass> Class;
  std::vector<uint32_t> AllUses;
  uint16_t NextB = 0, NextD = 0, NextI = 0;

  // Liveness of the movable boxed values (see the file comment).
  std::vector<int32_t> LiveIdx;     ///< by Id: bit index, -1 = never moved
  size_t LiveWords = 0;             ///< 64-bit words per live set
  std::vector<uint64_t> LiveIn;     ///< by block id, LiveWords each
  std::vector<bool> ContainerDies;  ///< by Id: SetElem2* may steal op 0

  std::vector<int32_t> BlockStart;  ///< by block id: first LowCode pc
  std::vector<int32_t> RpoPos;      ///< by block id: layout position
  struct Fixup {
    size_t LowPc;
    const BB *Target;
    int32_t Tramp = -1;
  };
  std::vector<Fixup> Fixups;

  struct Trampoline {
    const BB *From;
    const BB *To;
    int32_t StartPc = -1;
  };
  std::vector<Trampoline> Trampolines;

  std::vector<const BB *> Rpo;

  //===-- Setup --------------------------------------------------------------//

  const Instr *canon(const Instr *I) const {
    const Instr *R = Alias[I->Id];
    return R ? R : I;
  }

  void resolveAliases() {
    // A CastType aliases its operand only when both have the same home;
    // raw-typed casts of boxed values materialize as Unbox instead.
    Alias.assign(C.NextInstrId, nullptr);
    C.eachInstr([&](Instr *I) {
      if (I->Op != IrOp::CastType)
        return;
      const Instr *Root = I->op(0);
      while (Root->Op == IrOp::CastType &&
             classOfType(Root->Type) == classOfType(Root->op(0)->Type))
        Root = Root->op(0);
      if (classOfType(I->Type) == classOfType(Root->Type))
        Alias[I->Id] = Root;
    });
  }

  void countUses() {
    AllUses.assign(C.NextInstrId, 0);
    C.eachInstr([&](Instr *I) {
      for (Instr *Op : I->Ops)
        ++AllUses[canon(Op)->Id];
    });
  }

  static bool producesValue(const Instr &I) {
    switch (I.Op) {
    case IrOp::FrameStateIr:
    case IrOp::CheckpointIr:
    case IrOp::AssumeIr:
    case IrOp::EpochCheckIr:
    case IrOp::StVarEnv:
    case IrOp::StVarSuperEnv:
    case IrOp::Jump:
    case IrOp::BranchIr:
    case IrOp::Ret:
      return false;
    default:
      return true;
    }
  }

  uint16_t allocSlot(SlotClass K) {
    switch (K) {
    case SlotClass::RawReal:
      return NextD++;
    case SlotClass::RawInt:
      return NextI++;
    default:
      return NextB++;
    }
  }

  void assignSlots() {
    Slot.assign(C.NextInstrId, NoSlot);
    Class.assign(C.NextInstrId, SlotClass::Boxed);
    for (Instr *P : C.Params) {
      SlotClass K = classOfType(P->Type);
      Class[P->Id] = K;
      Slot[P->Id] = allocSlot(K);
      F->ParamClasses.push_back(K);
      F->ParamSlots.push_back(Slot[P->Id]);
    }
    C.eachInstr([&](Instr *I) {
      if (!producesValue(*I) || Slot[I->Id] != NoSlot || Alias[I->Id])
        return;
      SlotClass K = classOfType(I->Type);
      Class[I->Id] = K;
      Slot[I->Id] = allocSlot(K);
    });
  }

  SlotClass classOf(const Instr *I) const {
    const Instr *R = canon(I);
    assert(Slot[R->Id] != NoSlot && "value without class");
    return Class[R->Id];
  }
  uint16_t slotOf(const Instr *I) const {
    const Instr *R = canon(I);
    assert(Slot[R->Id] != NoSlot && "value without slot");
    return Slot[R->Id];
  }
  uint16_t boxedSlotOf(const Instr *I) const {
    assert(classOf(I) == SlotClass::Boxed && "expected boxed home");
    return slotOf(I);
  }
  LiveRef liveRef(const Instr *I) const { return {slotOf(I), classOf(I)}; }

  //===-- Emission helpers ----------------------------------------------------//

  size_t emit(LowInstr I) {
    F->Code.push_back(I);
    return F->Code.size() - 1;
  }

  int32_t addConst(Value V) {
    F->Consts.push_back(std::move(V));
    return static_cast<int32_t>(F->Consts.size() - 1);
  }

  /// Returns a boxed slot holding \p V's value at this point, boxing raw
  /// homes into a fresh temporary.
  uint16_t ensureBoxed(const Instr *V) {
    SlotClass K = classOf(V);
    if (K == SlotClass::Boxed)
      return slotOf(V);
    uint16_t Tmp = NextB++;
    LowInstr B{LowOp::Box};
    B.Dst = Tmp;
    B.A = slotOf(V);
    B.C = static_cast<uint16_t>(K);
    emit(B);
    return Tmp;
  }

  /// Emits \p L (which writes a boxed result to L.Dst); when the value's
  /// home is raw, routes through a boxed temp + Unbox.
  void emitBoxedProducer(const Instr *I, LowInstr L) {
    SlotClass K = classOf(I);
    if (K == SlotClass::Boxed) {
      L.Dst = slotOf(I);
      emit(L);
      return;
    }
    uint16_t Tmp = NextB++;
    L.Dst = Tmp;
    emit(L);
    LowInstr U{LowOp::Unbox};
    U.Dst = slotOf(I);
    U.A = Tmp;
    U.C = static_cast<uint16_t>(K);
    emit(U);
  }

  //===-- Liveness of boxed slots --------------------------------------------//

  /// Ops that emit no code of their own: their operands are read by the
  /// Assume that references them.
  static bool readByGuard(IrOp Op) {
    switch (Op) {
    case IrOp::FrameStateIr:
    case IrOp::CheckpointIr:
    case IrOp::IsTagIr:
    case IrOp::IsFunIr:
      return true;
    default:
      return false;
    }
  }

  /// Calls \p Read with the live index of every movable value operand
  /// \p V stands for, looking through guard-only ops.
  template <typename Fn>
  void readsThrough(const Instr *V, const Fn &Read) const {
    if (readByGuard(V->Op)) {
      for (const Instr *Op : V->Ops)
        readsThrough(Op, Read);
      return;
    }
    if (int32_t X = LiveIdx[canon(V)->Id]; X >= 0)
      Read(X);
  }

  /// Calls \p Read for every movable value \p I reads where it runs.
  template <typename Fn> void readsOf(const Instr &I, Fn Read) const {
    if (I.Op == IrOp::Phi || readByGuard(I.Op) || Alias[I.Id])
      return;
    for (const Instr *Op : I.Ops)
      readsThrough(Op, Read);
  }

  static bool test(const uint64_t *Set, int32_t X) {
    return Set[X >> 6] >> (X & 63) & 1;
  }
  static void set(uint64_t *Set, int32_t X) {
    Set[X >> 6] |= uint64_t(1) << (X & 63);
  }
  static void clear(uint64_t *Set, int32_t X) {
    Set[X >> 6] &= ~(uint64_t(1) << (X & 63));
  }
  uint64_t *liveIn(const BB *B) { return &LiveIn[B->Id * LiveWords]; }

  /// Live-out of \p B: the live-in of each successor plus the operands
  /// its phis read on the edge from \p B.
  void liveOut(const BB *B, uint64_t *Out) {
    std::memset(Out, 0, LiveWords * sizeof(uint64_t));
    for (const BB *S : {B->Succs[0], B->Succs[1]}) {
      if (!S)
        continue;
      const uint64_t *In = liveIn(S);
      for (size_t W = 0; W < LiveWords; ++W)
        Out[W] |= In[W];
      for (size_t K = 0; K < S->Preds.size(); ++K) {
        if (S->Preds[K] != B)
          continue;
        for (auto &IP : S->Instrs)
          if (IP->Op == IrOp::Phi && K < IP->Ops.size())
            readsThrough(IP->Ops[K], [&](int32_t X) { set(Out, X); });
      }
    }
  }

  /// Backward scan of \p B from its live-out set \p Live (updated in
  /// place to the live-in set). With \p Final, records which element
  /// stores see their container die.
  void scanBlock(const BB *B, uint64_t *Live, bool Final) {
    for (size_t K = B->Instrs.size(); K-- > 0;) {
      const Instr &I = *B->Instrs[K];
      if (Final && (I.Op == IrOp::SetElem2Gen ||
                    I.Op == IrOp::SetElem2Typed)) {
        // The store's own index and value reads happen after the move.
        const Instr *Obj = canon(I.op(0));
        int32_t X = LiveIdx[Obj->Id];
        ContainerDies[I.Id] = X >= 0 && !test(Live, X) &&
                              canon(I.op(1)) != Obj && canon(I.op(2)) != Obj;
      }
      if (int32_t D = LiveIdx[I.Id]; D >= 0)
        clear(Live, D);
      readsOf(I, [&](int32_t X) { set(Live, X); });
    }
  }

  void computeLiveness() {
    std::vector<BB *> Order = C.rpo();
    Rpo.assign(Order.begin(), Order.end());
    RpoPos.assign(C.NextBlockId, -1);
    for (size_t K = 0; K < Rpo.size(); ++K)
      RpoPos[Rpo[K]->Id] = static_cast<int32_t>(K);

    // Movable: every value with a boxed slot of its own (aliasing casts
    // have none) except the prologue-loaded constants and the guard
    // predicates, whose slots are never written.
    LiveIdx.assign(C.NextInstrId, -1);
    int32_t N = 0;
    C.eachInstr([&](Instr *I) {
      if (Slot[I->Id] != NoSlot && Class[I->Id] == SlotClass::Boxed &&
          I->Op != IrOp::Const && I->Op != IrOp::Undef &&
          !readByGuard(I->Op))
        LiveIdx[I->Id] = N++;
    });
    ContainerDies.assign(C.NextInstrId, false);
    LiveWords = (static_cast<size_t>(N) + 63) / 64;
    LiveIn.assign(C.NextBlockId * LiveWords, 0);
    if (!N)
      return;

    // Iterate to a fixpoint in post-order (live sets only grow).
    std::vector<uint64_t> Live(LiveWords);
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (size_t K = Rpo.size(); K-- > 0;) {
        const BB *B = Rpo[K];
        liveOut(B, Live.data());
        scanBlock(B, Live.data(), false);
        uint64_t *In = liveIn(B);
        if (std::memcmp(In, Live.data(), LiveWords * sizeof(uint64_t))) {
          std::memcpy(In, Live.data(), LiveWords * sizeof(uint64_t));
          Changed = true;
        }
      }
    }
    for (const BB *B : Rpo) {
      liveOut(B, Live.data());
      scanBlock(B, Live.data(), true);
    }
  }

  /// The (phi, source) pairs of one CFG edge.
  using EdgeMoves = std::vector<std::pair<const Instr *, const Instr *>>;

  /// True when the edge move of \p Src into \p To may steal: the value
  /// is not live into \p To and no other phi on the edge reads it.
  bool edgeMoveSteals(const Instr *Src, const BB *To, const EdgeMoves &Moves) {
    const Instr *R = canon(Src);
    int32_t X = LiveIdx[R->Id];
    if (X < 0 || test(liveIn(To), X))
      return false;
    int Readers = 0;
    for (auto &M : Moves)
      Readers += canon(M.second) == R;
    return Readers == 1;
  }

  /// Emits the phi copies for the edge From -> To.
  void emitEdgeMoves(const BB *From, const BB *To) {
    EdgeMoves Moves;
    size_t PredIdx = static_cast<size_t>(-1);
    for (size_t K = 0; K < To->Preds.size(); ++K)
      if (To->Preds[K] == From) {
        PredIdx = K;
        break;
      }
    if (PredIdx == static_cast<size_t>(-1))
      return;
    for (auto &IP : To->Instrs) {
      if (IP->Op != IrOp::Phi)
        continue;
      if (PredIdx < IP->Ops.size())
        Moves.push_back({IP.get(), IP->Ops[PredIdx]});
    }
    if (Moves.empty())
      return;

    bool NeedTemps = false;
    for (auto &[Phi, Src] : Moves)
      for (auto &[OtherPhi, OtherSrc] : Moves)
        if (OtherPhi != Phi && classOf(OtherPhi) == classOf(Src) &&
            slotOf(OtherPhi) == slotOf(Src))
          NeedTemps = true;

    auto EmitOne = [&](uint16_t Dst, SlotClass DstK, const Instr *Phi,
                       const Instr *Src) {
      (void)Phi;
      SlotClass SrcK = classOf(Src);
      if (SrcK != DstK) {
        // Box/unbox into the destination class. (Classes can only differ
        // when the phi is boxed and the source raw: a phi's type joins its
        // inputs, so a raw — precise — phi implies raw same-kind inputs.)
        if (DstK == SlotClass::Boxed) {
          LowInstr B{LowOp::Box};
          B.Dst = Dst;
          B.A = slotOf(Src);
          B.C = static_cast<uint16_t>(SrcK);
          emit(B);
          return;
        }
        Tag Target = DstK == SlotClass::RawReal ? Tag::Real : Tag::Int;
        LowInstr Co{LowOp::Coerce};
        Co.Dst = Dst;
        Co.A = slotOf(Src);
        Co.C = packCoerce(Target, SrcK);
        Co.B = static_cast<uint16_t>(DstK);
        emit(Co);
        return;
      }
      LowInstr M{LowOp::Move};
      M.Dst = Dst;
      M.A = slotOf(Src);
      M.B = static_cast<uint16_t>(DstK);
      M.C = DstK == SlotClass::Boxed && edgeMoveSteals(Src, To, Moves) ? 1 : 0;
      emit(M);
    };

    if (!NeedTemps) {
      for (auto &[Phi, Src] : Moves) {
        SlotClass K = classOf(Phi);
        if (classOf(Src) == K && slotOf(Phi) == slotOf(Src))
          continue;
        EmitOne(slotOf(Phi), K, Phi, Src);
      }
      return;
    }
    std::vector<std::pair<uint16_t, SlotClass>> Temps;
    for (auto &[Phi, Src] : Moves) {
      SlotClass K = classOf(Phi);
      uint16_t T = allocSlot(K);
      Temps.push_back({T, K});
      EmitOne(T, K, Phi, Src);
    }
    for (size_t K = 0; K < Moves.size(); ++K) {
      LowInstr M{LowOp::Move};
      M.Dst = slotOf(Moves[K].first);
      M.A = Temps[K].first;
      M.B = static_cast<uint16_t>(Temps[K].second);
      M.C = Temps[K].second == SlotClass::Boxed ? 1 : 0;
      emit(M);
    }
  }

  static bool edgeHasMoves(const BB *From, const BB *To) {
    for (auto &IP : To->Instrs)
      if (IP->Op == IrOp::Phi)
        return true;
    (void)From;
    return false;
  }

  void jumpTo(const BB *Target) {
    LowInstr I{LowOp::JumpLow};
    size_t Pc = emit(I);
    Fixups.push_back({Pc, Target, -1});
  }

  const BB *nextInLayout(const BB *B) const {
    size_t K = static_cast<size_t>(RpoPos[B->Id]) + 1;
    return K < Rpo.size() ? Rpo[K] : nullptr;
  }

  bool fuseCompare(const Instr *Cond, LowInstr &Br, bool SenseTrue) {
    const Instr *R = canon(Cond);
    if (R->Op != IrOp::BinTyped || !isComparison(R->Bop) ||
        AllUses[R->Id] != 1 || F->Code.empty())
      return false;
    const LowInstr &Last = F->Code.back();
    if (Last.Op != LowOp::ArithTyped || Last.Dst != slotOf(R))
      return false;
    Br.Op = LowOp::CmpBranch;
    Br.A = Last.A;
    Br.B = Last.B;
    Br.C = packCmpBranch(Last.C, SenseTrue);
    F->Code.pop_back();
    return true;
  }

  //===-- Block emission --------------------------------------------------------//

  void emitBlocks() {
    BlockStart.assign(C.NextBlockId, -1);
    // Materialize constants and undefs once up front.
    for (const BB *B : Rpo)
      for (auto &IP : B->Instrs)
        if (IP->Op == IrOp::Const || IP->Op == IrOp::Undef) {
          LowInstr L{LowOp::LoadConst};
          L.Dst = slotOf(IP.get());
          L.B = static_cast<uint16_t>(classOf(IP.get()));
          L.Imm = addConst(IP->Op == IrOp::Const ? IP->Cst : Value::nil());
          emit(L);
        }
    for (const BB *B : Rpo) {
      BlockStart[B->Id] = static_cast<int32_t>(F->Code.size());
      for (auto &IP : B->Instrs)
        emitInstr(*IP, B);
    }
  }

  void emitTrampolines() {
    for (auto &T : Trampolines) {
      T.StartPc = static_cast<int32_t>(F->Code.size());
      emitEdgeMoves(T.From, T.To);
      jumpTo(T.To);
    }
  }

  void applyFixups() {
    for (const Fixup &Fx : Fixups) {
      if (Fx.Tramp >= 0)
        F->Code[Fx.LowPc].Imm = Trampolines[Fx.Tramp].StartPc;
      else
        F->Code[Fx.LowPc].Imm = BlockStart[Fx.Target->Id];
    }
  }

  void branchFixup(size_t LowPc, const BB *From, const BB *To) {
    if (edgeHasMoves(From, To)) {
      Trampolines.push_back({From, To, -1});
      Fixups.push_back(
          {LowPc, To, static_cast<int32_t>(Trampolines.size() - 1)});
      return;
    }
    Fixups.push_back({LowPc, To, -1});
  }

  void emitInstr(const Instr &I, const BB *B) {
    switch (I.Op) {
    case IrOp::Const:
    case IrOp::Undef:
    case IrOp::Param:
    case IrOp::Phi:
      return; // prologue / call convention / edge moves

    case IrOp::CoerceNum: {
      LowInstr L{LowOp::Coerce};
      L.Dst = slotOf(&I);
      L.A = slotOf(I.op(0));
      L.B = static_cast<uint16_t>(classOf(&I));
      L.C = packCoerce(I.Knd, classOf(I.op(0)));
      emit(L);
      return;
    }

    case IrOp::CastType: {
      if (Alias[I.Id])
        return;
      // Materialized cast: boxed -> raw (the value is now known precise).
      LowInstr U{LowOp::Unbox};
      U.Dst = slotOf(&I);
      U.A = ensureBoxed(I.op(0));
      U.C = static_cast<uint16_t>(classOf(&I));
      assert(classOf(&I) != SlotClass::Boxed && "cast alias expected");
      emit(U);
      return;
    }

    case IrOp::LdVarEnv: {
      LowInstr L{LowOp::LdEnv};
      L.Imm = static_cast<int32_t>(I.Sym);
      emitBoxedProducer(&I, L);
      return;
    }
    case IrOp::StVarEnv: {
      LowInstr L{LowOp::StEnv};
      L.A = ensureBoxed(I.op(0));
      L.Imm = static_cast<int32_t>(I.Sym);
      emit(L);
      return;
    }
    case IrOp::StVarSuperEnv: {
      LowInstr L{LowOp::StEnvSuper};
      L.A = ensureBoxed(I.op(0));
      L.Imm = static_cast<int32_t>(I.Sym);
      emit(L);
      return;
    }
    case IrOp::MkClosureIr: {
      LowInstr L{LowOp::MkClosLow};
      L.Imm = I.Idx;
      emitBoxedProducer(&I, L);
      return;
    }

    case IrOp::CallVal:
    case IrOp::CallStatic: {
      size_t NArgs = I.Ops.size() - 1;
      uint16_t Base = NextB;
      NextB = static_cast<uint16_t>(NextB + NArgs);
      for (size_t K = 0; K < NArgs; ++K)
        emitArgMove(static_cast<uint16_t>(Base + K), I.op(K + 1));
      LowInstr L{LowOp::CallValLow};
      L.A = ensureBoxed(I.op(0));
      L.B = Base;
      L.Imm = static_cast<int32_t>(NArgs);
      emitBoxedProducer(&I, L);
      return;
    }
    case IrOp::CallBuiltinKnown: {
      size_t NArgs = I.Ops.size();
      uint16_t Base = NextB;
      NextB = static_cast<uint16_t>(NextB + NArgs);
      for (size_t K = 0; K < NArgs; ++K)
        emitArgMove(static_cast<uint16_t>(Base + K), I.op(K));
      LowInstr L{LowOp::CallBiLow};
      L.B = Base;
      L.C = static_cast<uint16_t>(I.Bid);
      L.Imm = static_cast<int32_t>(NArgs);
      emitBoxedProducer(&I, L);
      return;
    }

    case IrOp::BinGen: {
      LowInstr L{LowOp::BinGenLow};
      L.A = ensureBoxed(I.op(0));
      L.B = ensureBoxed(I.op(1));
      L.C = static_cast<uint16_t>(I.Bop);
      emitBoxedProducer(&I, L);
      return;
    }
    case IrOp::BinTyped: {
      // Operands of rank 1/2 are raw by construction; rank 3 (complex) and
      // rank 0 do not occur after strength reduction.
      LowInstr L{LowOp::ArithTyped};
      L.Dst = slotOf(&I);
      L.A = slotOf(I.op(0));
      L.B = slotOf(I.op(1));
      L.C = packArith(I.Bop, kindRank(I.Knd));
      emit(L);
      return;
    }
    case IrOp::NegGen: {
      LowInstr L{LowOp::NegLow};
      L.A = ensureBoxed(I.op(0));
      emitBoxedProducer(&I, L);
      return;
    }
    case IrOp::NotGen: {
      LowInstr L{LowOp::NotLow};
      L.A = ensureBoxed(I.op(0));
      emitBoxedProducer(&I, L);
      return;
    }
    case IrOp::AsCond: {
      LowInstr L{LowOp::AsCondLow};
      L.A = ensureBoxed(I.op(0));
      emitBoxedProducer(&I, L);
      return;
    }

    case IrOp::Extract2Gen:
    case IrOp::Extract1Gen: {
      LowInstr L{I.Op == IrOp::Extract2Gen ? LowOp::Extract2Low
                                           : LowOp::Extract1Low};
      L.A = ensureBoxed(I.op(0));
      L.B = ensureBoxed(I.op(1));
      emitBoxedProducer(&I, L);
      return;
    }
    case IrOp::Extract2Typed: {
      // Obj boxed, index raw int; destination per element kind.
      LowInstr L{LowOp::Extract2Typed};
      L.Dst = slotOf(&I);
      L.A = boxedSlotOf(I.op(0));
      L.B = slotOf(I.op(1));
      assert(classOf(I.op(1)) == SlotClass::RawInt && "index must be raw");
      L.C = packElem(I.Knd);
      emit(L);
      return;
    }
    case IrOp::SetElem2Gen:
    case IrOp::SetElem2Typed: {
      LowInstr L{I.Op == IrOp::SetElem2Gen ? LowOp::SetElem2Low
                                           : LowOp::SetElem2Typed};
      L.Dst = boxedSlotOf(&I);
      L.A = boxedSlotOf(I.op(0));
      bool Steal = ContainerDies[I.Id];
      if (I.Op == IrOp::SetElem2Typed) {
        L.B = slotOf(I.op(1)); // raw int index
        assert(classOf(I.op(1)) == SlotClass::RawInt);
        L.Imm = slotOf(I.op(2)); // value in its (kind-implied) home
        L.C = packElem(I.Knd, Steal);
      } else {
        L.B = ensureBoxed(I.op(1));
        L.Imm = ensureBoxed(I.op(2));
        L.C = packElem(Tag::Null, Steal);
      }
      emit(L);
      return;
    }
    case IrOp::SetIdx2Env:
    case IrOp::SetIdx1Env: {
      LowInstr L{LowOp::SetIdx2EnvLow};
      L.A = ensureBoxed(I.op(0));
      L.B = ensureBoxed(I.op(1));
      L.Imm2 = static_cast<int32_t>(I.Sym);
      emitBoxedProducer(&I, L);
      return;
    }
    case IrOp::LengthIr: {
      LowInstr L{LowOp::LengthLow};
      L.Dst = slotOf(&I);
      L.A = ensureBoxed(I.op(0));
      assert(classOf(&I) == SlotClass::RawInt && "length is a raw int");
      emit(L);
      return;
    }

    case IrOp::IsTagIr:
    case IrOp::IsFunIr:
      return; // evaluated by the guard

    case IrOp::AssumeIr: {
      const Instr *Cond = I.op(0);
      int32_t MetaIdx = buildMeta(I, Cond, I.op(1));
      LowInstr L{LowOp::GuardCond};
      L.Imm = MetaIdx;
      L.A = F->Deopts[MetaIdx].ValueSlot;
      L.C = static_cast<uint16_t>(Cond->Op == IrOp::IsTagIr   ? 0
                                  : Cond->Op == IrOp::IsFunIr ? 1
                                                              : 3);
      emit(L);
      ++F->GuardCount;
      return;
    }
    case IrOp::EpochCheckIr: {
      LowInstr L{LowOp::EpochCheck};
      L.Imm = buildMeta(I, nullptr, I.op(0));
      emit(L);
      return;
    }
    case IrOp::FrameStateIr:
    case IrOp::CheckpointIr:
      return;

    case IrOp::Jump: {
      const BB *To = B->Succs[0];
      emitEdgeMoves(B, To);
      if (nextInLayout(B) != To)
        jumpTo(To);
      return;
    }
    case IrOp::BranchIr: {
      const BB *TrueBb = B->Succs[0];
      const BB *FalseBb = B->Succs[1];
      const BB *Next = nextInLayout(B);
      bool SenseTrue = Next == FalseBb;
      const BB *Taken = SenseTrue ? TrueBb : FalseBb;
      const BB *Fall = SenseTrue ? FalseBb : TrueBb;
      LowInstr Br{SenseTrue ? LowOp::BranchTrueLow : LowOp::BranchFalseLow};
      if (!fuseCompare(I.op(0), Br, SenseTrue))
        Br.A = ensureBoxed(I.op(0));
      size_t BrPc = emit(Br);
      branchFixup(BrPc, B, Taken);
      emitEdgeMoves(B, Fall);
      if (nextInLayout(B) != Fall)
        jumpTo(Fall);
      return;
    }
    case IrOp::Ret: {
      LowInstr L{LowOp::RetLow};
      L.A = ensureBoxed(I.op(0));
      emit(L);
      return;
    }
    default:
      assert(false && "unhandled IR op in lowering");
      return;
    }
  }

  /// Copies or boxes an argument into a boxed call-window slot.
  void emitArgMove(uint16_t Dst, const Instr *Src) {
    SlotClass K = classOf(Src);
    if (K == SlotClass::Boxed) {
      LowInstr M{LowOp::Move};
      M.Dst = Dst;
      M.A = slotOf(Src);
      M.B = static_cast<uint16_t>(SlotClass::Boxed);
      emit(M);
      return;
    }
    LowInstr Bx{LowOp::Box};
    Bx.Dst = Dst;
    Bx.A = slotOf(Src);
    Bx.C = static_cast<uint16_t>(K);
    emit(Bx);
  }

  /// The deopt metadata of a guard (\p Check an Assume testing \p Cond)
  /// or of an epoch check (no \p Cond), resuming at \p Cp's framestate.
  int32_t buildMeta(const Instr &Check, const Instr *Cond, const Instr *Cp) {
    DeoptMeta M;
    M.RKind = Check.RKind;
    M.ReasonPc = Check.BcPc;
    M.FailedFeedbackSlot = Check.Idx;
    if (Cond && (Cond->Op == IrOp::IsTagIr || Cond->Op == IrOp::IsFunIr)) {
      if (Cond->Op == IrOp::IsTagIr)
        M.ExpectedTag = Cond->TagArg;
      if (Cond->Op == IrOp::IsFunIr)
        M.ExpectedFun = Cond->Target;
      M.ValueSlot = ensureBoxed(Cond->op(0));
      M.HasValueSlot = true;
    } else if (Cond) {
      M.ValueSlot = ensureBoxed(Cond);
      M.HasValueSlot = false;
    }

    const Instr *Fs = Cp->op(0);
    M.BcPc = Fs->BcPc;
    M.FrameFn = Fs->Target;
    for (uint32_t K = 0; K < Fs->StackCount; ++K)
      M.StackSlots.push_back(liveRef(Fs->stackOp(K)));
    for (size_t K = 0; K < Fs->EnvSyms.size(); ++K)
      M.EnvSlots.push_back({Fs->EnvSyms[K], liveRef(Fs->envOp(K))});

    // Inlined guards: encode the chain of caller return-framestates so the
    // runtime can materialize every synthesized frame on OSR-out.
    for (const Instr *P = Fs->parentFs(); P; P = P->parentFs()) {
      DeoptFrame Fr;
      Fr.Fn = P->Target;
      Fr.BcPc = P->BcPc;
      for (uint32_t K = 0; K < P->StackCount; ++K)
        Fr.StackSlots.push_back(liveRef(P->stackOp(K)));
      for (size_t K = 0; K < P->EnvSyms.size(); ++K)
        Fr.EnvSlots.push_back({P->EnvSyms[K], liveRef(P->envOp(K))});
      M.Callers.push_back(std::move(Fr));
    }

    F->Deopts.push_back(std::move(M));
    return static_cast<int32_t>(F->Deopts.size() - 1);
  }
};

} // namespace

std::unique_ptr<LowFunction> rjit::lowerToLow(const IrCode &C) {
  Lowerer L(C);
  return L.run();
}
