//===-- ir/cfg.h - Dominators & natural loops --------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CFG analyses over the optimizer IR: a dominator tree (iterative
/// Cooper–Harvey–Kennedy over reverse post-order) and natural loops
/// (back-edges whose target dominates their source), plus preheader
/// synthesis and the block copier the inliner and the loop peeler share.
/// The loop optimization layer (opt/peel, opt/licm) consumes these; the
/// IR verifier uses the dominator tree to check that definitions dominate
/// uses between passes.
///
/// All analyses are snapshots: any CFG mutation (including
/// ensurePreheader itself) invalidates previously computed DomTree /
/// NaturalLoop values, so clients recompute after mutating.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_IR_CFG_H
#define RJIT_IR_CFG_H

#include "ir/instr.h"

#include <unordered_map>
#include <vector>

namespace rjit {

/// Immediate-dominator tree over the reachable blocks of an IrCode.
class DomTree {
public:
  explicit DomTree(const IrCode &C);

  /// True when \p B is reachable from the entry block.
  bool reachable(const BB *B) const {
    return B->Id < RpoIndex.size() && RpoIndex[B->Id] >= 0;
  }

  /// Immediate dominator of \p B (null for the entry / unreachable).
  BB *idom(const BB *B) const {
    if (!reachable(B))
      return nullptr;
    return Idom[B->Id];
  }

  /// Block-level dominance (reflexive). Unreachable blocks dominate
  /// nothing and are dominated by nothing. (Instruction-level dominance
  /// additionally needs within-block positions; the verifier keeps its
  /// own position index for that.)
  bool dominates(const BB *A, const BB *B) const;

  /// Reachable blocks in reverse post-order.
  const std::vector<BB *> &rpo() const { return Rpo; }

  /// Dominator-tree children of \p B, ordered by block id (deterministic).
  const std::vector<BB *> &children(const BB *B) const;

private:
  std::vector<BB *> Rpo;
  std::vector<int> RpoIndex;       ///< by block id; -1 = unreachable
  std::vector<BB *> Idom;          ///< by block id; entry maps to itself
  std::vector<std::vector<BB *>> Children; ///< by block id
  BB *Entry = nullptr;
};

/// One natural loop: the header, the blocks of the loop body (header
/// included), the latches (in-loop predecessors of the header) and — after
/// ensurePreheader — the dedicated preheader.
struct NaturalLoop {
  BB *Header = nullptr;
  BB *Preheader = nullptr;   ///< set by ensurePreheader
  std::vector<BB *> Latches; ///< in-loop preds of the header
  std::vector<bool> InBody;  ///< indexed by block id
  size_t NumBlocks = 0;

  bool contains(const BB *B) const {
    return B->Id < InBody.size() && InBody[B->Id];
  }
  /// True when \p I is defined inside this loop.
  bool contains(const Instr *I) const { return contains(I->Parent); }
};

/// Finds every natural loop (back-edges merged per header), sorted
/// innermost-first (ascending body size): hoisting out of an inner loop
/// lands in its preheader, which an enclosing loop processed later can
/// hoist again.
std::vector<NaturalLoop> findLoops(const IrCode &C, const DomTree &DT);

/// Ensures \p L has a dedicated preheader: a block outside the loop whose
/// single successor is the header and that ends in a plain Jump, so
/// hoisted instructions inserted before its terminator execute exactly
/// once per loop entry. Reuses an existing block when the loop already has
/// one; otherwise splits the entry edges (merging multi-edge entries with
/// fresh phis). Returns true when the CFG changed — every previously
/// computed DomTree / loop set is then stale and must be recomputed.
bool ensurePreheader(IrCode &C, NaturalLoop &L);

/// What cloneBlocks copied: every source block and instruction to its
/// copy. Instructions may be pre-seeded with substitutions before the
/// call; those are not copied, and their uses in the copy read the
/// substitute.
struct CloneMap {
  std::unordered_map<const BB *, BB *> Blocks;
  std::unordered_map<const Instr *, Instr *> Instrs;

  /// The copy of \p I, or \p I itself when it was not copied (a value
  /// defined outside the copied blocks).
  Instr *operator()(Instr *I) const {
    auto It = Instrs.find(I);
    return It == Instrs.end() ? I : It->second;
  }
  BB *operator()(BB *B) const {
    auto It = Blocks.find(B);
    return It == Blocks.end() ? B : It->second;
  }
};

/// Copies \p Blocks (of \p C or of another IrCode) into \p C: one new
/// block per source block, one new instruction per source instruction
/// that \p Map does not already map, with every payload field. Operands,
/// phi incoming blocks, successors and predecessor lists are remapped
/// through \p Map, so edges and values inside the copied set point at
/// the copies and everything else keeps its original target. Pred lists
/// are copied in order, not rebuilt, which keeps them aligned with the
/// phi operands. The caller rewires the edges that cross the boundary.
void cloneBlocks(IrCode &C, const std::vector<BB *> &Blocks, CloneMap &Map);

} // namespace rjit

#endif // RJIT_IR_CFG_H
