//===-- support/stats.cpp - VM event counters -----------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/stats.h"

using namespace rjit;

VmStats VmStats::operator-(const VmStats &O) const {
  VmStats R;
  R.Compilations = Compilations - O.Compilations;
  R.OsrInCompilations = OsrInCompilations - O.OsrInCompilations;
  R.OsrInEntries = OsrInEntries - O.OsrInEntries;
  R.Deopts = Deopts - O.Deopts;
  R.DeoptlessAttempts = DeoptlessAttempts - O.DeoptlessAttempts;
  R.DeoptlessHits = DeoptlessHits - O.DeoptlessHits;
  R.DeoptlessCompiles = DeoptlessCompiles - O.DeoptlessCompiles;
  R.DeoptlessRejected = DeoptlessRejected - O.DeoptlessRejected;
  R.AssumeChecks = AssumeChecks - O.AssumeChecks;
  R.AssumeFailures = AssumeFailures - O.AssumeFailures;
  R.InjectedFailures = InjectedFailures - O.InjectedFailures;
  R.Reoptimizations = Reoptimizations - O.Reoptimizations;
  R.CtxVersions = CtxVersions - O.CtxVersions;
  R.CtxDispatchHits = CtxDispatchHits - O.CtxDispatchHits;
  R.CtxDispatchMisses = CtxDispatchMisses - O.CtxDispatchMisses;
  R.InlinedCalls = InlinedCalls - O.InlinedCalls;
  R.HoistedInstrs = HoistedInstrs - O.HoistedInstrs;
  R.HoistedGuards = HoistedGuards - O.HoistedGuards;
  R.EliminatedGuards = EliminatedGuards - O.EliminatedGuards;
  R.MultiFrameDeopts = MultiFrameDeopts - O.MultiFrameDeopts;
  R.InlineFramesMaterialized =
      InlineFramesMaterialized - O.InlineFramesMaterialized;
  R.DeoptlessInlineDispatches =
      DeoptlessInlineDispatches - O.DeoptlessInlineDispatches;
  R.AsyncCompiles = AsyncCompiles - O.AsyncCompiles;
  // A gauge, not an event counter: a per-phase diff would report nonsense
  // (e.g. zero when the later phase peaked lower), so the difference
  // carries the later snapshot's level and high-water unchanged.
  R.CompileQueueDepth = CompileQueueDepth;
  R.WarmupPausesAvoided = WarmupPausesAvoided - O.WarmupPausesAvoided;
  R.NativeCompiles = NativeCompiles - O.NativeCompiles;
  R.NativeEnters = NativeEnters - O.NativeEnters;
  R.NativeLinkedTransfers = NativeLinkedTransfers - O.NativeLinkedTransfers;
  R.NativeFusedOps = NativeFusedOps - O.NativeFusedOps;
  R.NativeRegSpills = NativeRegSpills - O.NativeRegSpills;
  R.CowCopies = CowCopies - O.CowCopies;
  // Like CompileQueueDepth: a gauge — the difference carries the later
  // snapshot's population and high-water, not a meaningless subtraction.
  R.GraveyardSize = GraveyardSize;
  R.GcCollections = GcCollections - O.GcCollections;
  R.GcFreedBytes = GcFreedBytes - O.GcFreedBytes;
  R.HeapLiveBytes = HeapLiveBytes;
  return R;
}

static VmStats GlobalStats;

VmStats &rjit::stats() { return GlobalStats; }

void rjit::resetStats() { GlobalStats = VmStats(); }
