//===-- native/linker.h - Direct version->version call linking ---*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct call linking for the native tier: hot monomorphic call sites in
/// native code transfer version-to-version without re-running the VM's
/// full dispatch. Each emitted CallValLow gets a LinkSite — a data cell
/// the generated code's call helper reads — holding the cached callee
/// Function and an atomic pointer to its currently published generic
/// version. The publication path patches sites forward
/// (NativeBackend::notifyPublish -> onPublish) and the retire path
/// patches them back to the dispatch fallback (Vm::toGraveyard ->
/// notifyRetire -> onRetire) *before* the graveyard ever reclaims the
/// target, so a linked predecessor can never jump into unmapped code.
///
/// Patching data cells rather than RX code keeps W^X intact and makes
/// cross-thread publication a single release store; the executor's
/// acquire load plus the retire-before-reclaim ordering is the entire
/// unlink protocol.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_NATIVE_LINKER_H
#define RJIT_NATIVE_LINKER_H

#include "exec/backend.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace rjit {

/// One native call site's link cell. Pc identifies the LowCode call
/// instruction; Target is the published version the fast path transfers
/// to (null = fall back to VM dispatch); LinkedCode mirrors the
/// executable Target's code pointed at when linked, so retire can clear
/// exactly the sites that point into the dying block. State is touched
/// only by the owning executor thread.
struct LinkSite {
  enum : uint8_t { Unregistered = 0, Registered = 1, Polymorphic = 2 };

  int32_t Pc = -1;
  Function *CacheFn = nullptr; ///< monomorphic callee (executor-written)
  std::atomic<FnVersion *> Target{nullptr};
  std::atomic<ExecutableCode *> LinkedCode{nullptr};
  uint8_t State = Unregistered;
};

/// The per-backend link registry: Function -> the registered LinkSites
/// calling it. Executors register sites and read Target lock-free;
/// compiler threads patch under the mutex at publication; the executor
/// patches back at retire (also under the mutex — the lock is a leaf,
/// taken inside the version writer lock on the retire path and outside
/// any lock on the publish path).
class NativeLinker {
public:
  /// Enrolls \p S as a monomorphic call site of \p Fn (executor thread).
  void registerSite(Function *Fn, LinkSite *S);

  /// Removes every site in [\p Begin, \p End) from the registry — called
  /// by ~NativeExecutable so dead executables' cells are never patched.
  /// Pure pointer comparison: safe from compiler threads discarding
  /// never-published code.
  void dropSites(const LinkSite *Begin, const LinkSite *End);

  /// \p Ver (with live code) was published for \p Fn: link every
  /// registered site. Any thread (compiler or executor).
  void onPublish(Function *Fn, FnVersion *Ver);

  /// \p Code is being retired: unlink every site pointing into it,
  /// *before* the graveyard can reclaim the block. Executor thread.
  void onRetire(const ExecutableCode *Code);

  /// Sites currently linked to \p Code (the retire-while-linked
  /// regression test's probe).
  size_t linkedPredecessors(const ExecutableCode *Code) const;

private:
  mutable std::mutex Mu;
  std::unordered_map<Function *, std::vector<LinkSite *>> Sites;
};

} // namespace rjit

#endif // RJIT_NATIVE_LINKER_H
