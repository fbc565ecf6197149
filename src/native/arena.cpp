//===-- native/arena.cpp - W^X executable code arena ----------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "native/arena.h"

#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define RJIT_HAVE_MMAP 1
#else
#define RJIT_HAVE_MMAP 0
#endif

using namespace rjit;

CodeArena::~CodeArena() {
#if RJIT_HAVE_MMAP
  for (const Block &B : Blocks)
    munmap(B.Mem, B.Size);
#endif
}

const void *CodeArena::install(const std::vector<uint8_t> &Code) {
#if RJIT_HAVE_MMAP
  if (Code.empty())
    return nullptr;
  static const size_t Page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  size_t Size = (Code.size() + Page - 1) / Page * Page;
  void *Mem = mmap(nullptr, Size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Mem == MAP_FAILED)
    return nullptr;
  std::memcpy(Mem, Code.data(), Code.size());
  // Seal: never writable+executable at once. x86-64 needs no explicit
  // icache flush; publication happens-before execution via the release
  // store of the owning code-table entry.
  if (mprotect(Mem, Size, PROT_READ | PROT_EXEC) != 0) {
    munmap(Mem, Size);
    return nullptr;
  }
  std::lock_guard<std::mutex> L(Mu);
  Blocks.push_back({Mem, Size});
  return Mem;
#else
  (void)Code;
  return nullptr;
#endif
}

bool CodeArena::release(const void *Entry) {
#if RJIT_HAVE_MMAP
  std::lock_guard<std::mutex> L(Mu);
  for (size_t I = 0; I < Blocks.size(); ++I) {
    if (Blocks[I].Mem != Entry)
      continue;
    munmap(Blocks[I].Mem, Blocks[I].Size);
    Blocks.erase(Blocks.begin() + static_cast<ptrdiff_t>(I));
    return true;
  }
  return false;
#else
  (void)Entry;
  return false;
#endif
}

size_t CodeArena::blockCount() const {
  std::lock_guard<std::mutex> L(Mu);
  return Blocks.size();
}
