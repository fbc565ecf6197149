//===-- native/native.h - x86-64 template-JIT backend ------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native execution tier: a template JIT in the tradition of
/// copy-and-patch baseline compilers (and of rv32emu's tier-1 JIT). Each
/// LowCode instruction is stitched into the function body as a short
/// x86-64 machine-code template operating directly on the slot arrays:
///
///  * typed raw-slot ops (RawReal/RawInt arithmetic, compares, fused
///    compare-and-branch, Move/Unbox/Coerce between raw classes) become
///    straight-line loads/stores/ALU ops — no dispatch, no operand decode;
///  * guard instructions become an inline test plus an out-of-line
///    side-exit stub that flushes the register homes and calls the
///    existing DeoptMeta-indexed deopt hook with the live slot arrays, so
///    true deoptimization, deoptless dispatch and multi-frame OSR-out work
///    unchanged from native frames;
///  * every other op (environment access, calls, generic fallbacks)
///    compiles to a direct call into the interpreter's own op handler
///    (lowcode/step.h) — one semantics, two drivers. A closure call thus
///    reaches vmDispatchCall exactly as it does from the interpreters.
///
/// Code is emitted into a per-backend (per-Vm) W^X arena: pages are
/// writable during emission, then sealed read+execute before publication.
/// C++ exceptions never unwind through JIT frames: helpers catch at the
/// boundary, the generated code returns through its epilogue, and the
/// entry wrapper rethrows.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_NATIVE_NATIVE_H
#define RJIT_NATIVE_NATIVE_H

#include "exec/backend.h"

#include <memory>

namespace rjit {

/// True when this build/host can run the template JIT (x86-64, GNU-
/// compatible toolchain, POSIX memory protection). The runtime half of
/// the Vm::Config::NativeTier gate.
bool nativeBackendSupported();

/// Creates a native backend instance (owning its code arena), or null on
/// unsupported hosts — callers fall back to the interpreter backend. Its
/// compiles are charged to \p Ctx, and the code it emits counts guard
/// checks into \p Ctx's AssumeChecks; null means the calling thread's
/// context. The Vm hands it its own.
std::unique_ptr<ExecBackend> makeNativeBackend(ExecContext *Ctx = nullptr);

} // namespace rjit

#endif // RJIT_NATIVE_NATIVE_H
