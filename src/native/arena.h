//===-- native/arena.h - W^X executable code arena ---------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executable-memory management for the template JIT. Each installed
/// function gets its own page-rounded mapping: written while building,
/// then sealed PROT_READ|PROT_EXEC — memory is never writable and
/// executable at the same time, and sealing one function can never flip
/// pages that already-published code is executing from (the reason
/// functions do not share pages; at this system's code volume the
/// sub-page waste is irrelevant). The arena is owned by one backend (one
/// Vm) and outlives every executable that points into it; install() is
/// callable from concurrent compiler threads.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_NATIVE_ARENA_H
#define RJIT_NATIVE_ARENA_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace rjit {

class CodeArena {
public:
  CodeArena() = default;
  ~CodeArena();
  CodeArena(const CodeArena &) = delete;
  CodeArena &operator=(const CodeArena &) = delete;

  /// Copies \p Code into fresh executable memory and seals it (W^X).
  /// Returns the entry address, or null when the mapping fails (callers
  /// fall back to the interpreter backend for this function).
  const void *install(const std::vector<uint8_t> &Code);

  /// Unmaps the block whose entry address is \p Entry. This is the
  /// reclamation half the per-function-mapping design exists for: the
  /// graveyard safepoint frees one retired function's pages without
  /// touching pages live code executes from. Caller (the NativeExecutable
  /// destructor) guarantees nothing can execute or re-enter the block.
  /// Returns false for an address this arena never installed.
  bool release(const void *Entry);

  /// Number of currently live mappings (diagnostics; the soak test's
  /// proof that reclaim returns pages, not just wrapper objects).
  size_t blockCount() const;

private:
  struct Block {
    void *Mem;
    size_t Size;
  };
  mutable std::mutex Mu;
  std::vector<Block> Blocks;
};

} // namespace rjit

#endif // RJIT_NATIVE_ARENA_H
