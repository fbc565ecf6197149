//===-- native/emitter.h - Minimal x86-64 machine-code emitter ---*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Just enough of an x86-64 assembler for the template JIT: byte-buffer
/// emission of the handful of encodings the per-LowOp templates use.
/// Memory operands are always [base + disp32] (uniform mod=10 encoding —
/// slot frames are small, simplicity beats the byte or two a disp8 would
/// save), branch targets are rel32 with explicit fixups patched by the
/// stitcher once all instruction offsets are known.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_NATIVE_EMITTER_H
#define RJIT_NATIVE_EMITTER_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

namespace rjit {

/// Register numbers (x86-64 encoding order).
enum Reg : uint8_t {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

/// Condition codes (the cc nibble of 0F 8x / SETcc).
enum Cc : uint8_t {
  CcB = 0x2,  ///< below (CF=1)
  CcAe = 0x3, ///< above-equal (CF=0)
  CcE = 0x4,
  CcNe = 0x5,
  CcBe = 0x6, ///< below-equal (CF=1 or ZF=1)
  CcA = 0x7,  ///< above (CF=0 and ZF=0)
  CcS = 0x8,  ///< sign
  CcNs = 0x9,
  CcP = 0xA,  ///< parity (unordered after ucomisd)
  CcNp = 0xB,
  CcL = 0xC,
  CcGe = 0xD,
  CcLe = 0xE,
  CcG = 0xF,
};

/// Inverts a condition code (x86 pairs differ in the low bit).
inline Cc ccNot(Cc C) { return static_cast<Cc>(C ^ 1); }

class X64Emitter {
public:
  std::vector<uint8_t> Buf;

  size_t size() const { return Buf.size(); }

  void u8(uint8_t B) { Buf.push_back(B); }
  void u32(uint32_t X) {
    for (int K = 0; K < 4; ++K)
      Buf.push_back(static_cast<uint8_t>(X >> (8 * K)));
  }
  void u64(uint64_t X) {
    for (int K = 0; K < 8; ++K)
      Buf.push_back(static_cast<uint8_t>(X >> (8 * K)));
  }

  /// Patches a rel32 at \p At so the branch lands on \p Target (both are
  /// buffer offsets; rel32 is relative to the end of the patched field).
  void patchRel32(size_t At, size_t Target) {
    int64_t Rel = static_cast<int64_t>(Target) -
                  (static_cast<int64_t>(At) + 4);
    assert(Rel >= INT32_MIN && Rel <= INT32_MAX && "branch out of range");
    int32_t R = static_cast<int32_t>(Rel);
    std::memcpy(&Buf[At], &R, 4);
  }

  //===-- Stack / moves ---------------------------------------------------//

  void pushReg(uint8_t R) {
    if (R >= 8)
      u8(0x41);
    u8(0x50 + (R & 7));
  }
  void popReg(uint8_t R) {
    if (R >= 8)
      u8(0x41);
    u8(0x58 + (R & 7));
  }
  void movRegReg64(uint8_t Dst, uint8_t Src) {
    rex(1, Src, Dst);
    u8(0x89);
    modrmReg(Src, Dst);
  }
  void movRegImm64(uint8_t R, uint64_t Imm) {
    rex(1, 0, R);
    u8(0xB8 + (R & 7));
    u64(Imm);
  }
  void movRegImm32(uint8_t R, uint32_t Imm) {
    if (R >= 8)
      u8(0x41);
    u8(0xB8 + (R & 7));
    u32(Imm);
  }
  void movRegReg32(uint8_t Dst, uint8_t Src) {
    rexOpt(0, Src, Dst);
    u8(0x89);
    modrmReg(Src, Dst);
  }

  //===-- Loads / stores ([base + disp32]) --------------------------------//

  void movRegMem64(uint8_t Dst, uint8_t Base, int32_t Disp) {
    rex(1, Dst, Base);
    u8(0x8B);
    mem(Dst, Base, Disp);
  }
  void movMemReg64(uint8_t Base, int32_t Disp, uint8_t Src) {
    rex(1, Src, Base);
    u8(0x89);
    mem(Src, Base, Disp);
  }
  void movRegMem32(uint8_t Dst, uint8_t Base, int32_t Disp) {
    rexOpt(0, Dst, Base);
    u8(0x8B);
    mem(Dst, Base, Disp);
  }
  void movMemReg32(uint8_t Base, int32_t Disp, uint8_t Src) {
    rexOpt(0, Src, Base);
    u8(0x89);
    mem(Src, Base, Disp);
  }
  void movMem32Imm32(uint8_t Base, int32_t Disp, uint32_t Imm) {
    rexOpt(0, 0, Base);
    u8(0xC7);
    mem(0, Base, Disp);
    u32(Imm);
  }
  /// movsxd dst64, dword [base + disp32]
  void movsxdRegMem32(uint8_t Dst, uint8_t Base, int32_t Disp) {
    rex(1, Dst, Base);
    u8(0x63);
    mem(Dst, Base, Disp);
  }
  /// mov dst32, [base + index*2^scale] (no displacement)
  void movRegMemIndex32(uint8_t Dst, uint8_t Base, uint8_t Index,
                        uint8_t ScaleLog) {
    rexIdx(0, Dst, Index, Base);
    u8(0x8B);
    memIndex(Dst, Base, Index, ScaleLog);
  }

  /// mov [base + index*2^scale], src32 (no displacement)
  void movMemIndexReg32(uint8_t Base, uint8_t Index, uint8_t ScaleLog,
                        uint8_t Src) {
    rexIdx(0, Src, Index, Base);
    u8(0x89);
    memIndex(Src, Base, Index, ScaleLog);
  }

  /// movsxd dst64, src32 (register form — the index path when the index
  /// slot is register-homed).
  void movsxdRegReg32(uint8_t Dst, uint8_t Src) {
    rex(1, Dst, Src);
    u8(0x63);
    modrmReg(Dst, Src);
  }

  //===-- Integer ALU -----------------------------------------------------//

  void addRegMem32(uint8_t Dst, uint8_t Base, int32_t Disp) {
    alu32(0x03, Dst, Base, Disp);
  }
  void addRegReg32(uint8_t Dst, uint8_t Src) {
    rexOpt(0, Dst, Src);
    u8(0x03);
    modrmReg(Dst, Src);
  }
  void subRegReg32(uint8_t Dst, uint8_t Src) {
    rexOpt(0, Dst, Src);
    u8(0x2B);
    modrmReg(Dst, Src);
  }
  void cmpRegReg32(uint8_t A, uint8_t B) { // flags of A - B
    rexOpt(0, A, B);
    u8(0x3B);
    modrmReg(A, B);
  }
  void xorRegReg32(uint8_t Dst, uint8_t Src) {
    rexOpt(0, Dst, Src);
    u8(0x33);
    modrmReg(Dst, Src);
  }
  void testRegReg32(uint8_t A, uint8_t B) {
    rexOpt(0, B, A);
    u8(0x85);
    modrmReg(B, A);
  }
  /// cdq: edx <- the sign of eax, for idiv.
  void cdq() { u8(0x99); }
  /// idiv r32: eax <- edx:eax / src (toward zero), edx <- the remainder.
  void idivReg32(uint8_t Src) {
    rexOpt(0, 0, Src);
    u8(0xF7);
    modrmReg(7, Src); // /7 = idiv
  }
  void addRegImm32(uint8_t R, uint32_t Imm) { aluImm32(0, R, Imm); }
  void subRegImm32(uint8_t R, uint32_t Imm) { aluImm32(5, R, Imm); }
  void cmpRegImm32(uint8_t R, uint32_t Imm) { aluImm32(7, R, Imm); }
  /// imul dst32, src32, imm32
  void imulRegRegImm32(uint8_t Dst, uint8_t Src, uint32_t Imm) {
    rexOpt(0, Dst, Src);
    u8(0x69);
    modrmReg(Dst, Src);
    u32(Imm);
  }
  void imulRegReg32(uint8_t Dst, uint8_t Src) {
    rexOpt(0, Dst, Src);
    u8(0x0F);
    u8(0xAF);
    modrmReg(Dst, Src);
  }
  void subRegMem32(uint8_t Dst, uint8_t Base, int32_t Disp) {
    alu32(0x2B, Dst, Base, Disp);
  }
  void imulRegMem32(uint8_t Dst, uint8_t Base, int32_t Disp) {
    rexOpt(0, Dst, Base);
    u8(0x0F);
    u8(0xAF);
    mem(Dst, Base, Disp);
  }
  void cmpRegMem32(uint8_t Dst, uint8_t Base, int32_t Disp) {
    alu32(0x3B, Dst, Base, Disp);
  }
  void cmpMem8Imm8(uint8_t Base, int32_t Disp, uint8_t Imm) {
    rexOpt(0, 0, Base);
    u8(0x80);
    mem(7, Base, Disp); // /7 = cmp
    u8(Imm);
  }
  void cmpMem32Imm32(uint8_t Base, int32_t Disp, uint32_t Imm) {
    rexOpt(0, 0, Base);
    u8(0x81);
    mem(7, Base, Disp);
    u32(Imm);
  }
  void cmpMem64Imm32(uint8_t Base, int32_t Disp, uint32_t Imm) {
    rex(1, 0, Base);
    u8(0x81);
    mem(7, Base, Disp);
    u32(Imm);
  }
  void cmpMemReg64(uint8_t Base, int32_t Disp, uint8_t Src) {
    rex(1, Src, Base);
    u8(0x39);
    mem(Src, Base, Disp);
  }
  void testRegReg64(uint8_t A, uint8_t B) {
    rex(1, B, A);
    u8(0x85);
    modrmReg(B, A);
  }
  void subRegReg64(uint8_t Dst, uint8_t Src) {
    rex(1, Src, Dst);
    u8(0x29);
    modrmReg(Src, Dst);
  }
  void subRegImm8(uint8_t R, uint8_t Imm) {
    rex(1, 0, R);
    u8(0x83);
    modrmReg(5, R); // /5 = sub
    u8(Imm);
  }
  void addRegImm8(uint8_t R, uint8_t Imm) {
    rex(1, 0, R);
    u8(0x83);
    modrmReg(0, R); // /0 = add
    u8(Imm);
  }
  void shrRegImm8(uint8_t R, uint8_t Imm) {
    rex(1, 0, R);
    u8(0xC1);
    modrmReg(5, R); // /5 = shr
    u8(Imm);
  }
  void cmpRegReg64(uint8_t A, uint8_t B) { // flags of A - B
    rex(1, B, A);
    u8(0x39);
    modrmReg(B, A);
  }
  /// inc qword [base + disp32] — a counter bump (one writer: the
  /// executor running the code).
  void incMem64(uint8_t Base, int32_t Disp) {
    rex(1, 0, Base);
    u8(0xFF);
    mem(0, Base, Disp); // /0 = inc
  }
  /// inc dword [base + disp32] — a heap object's refcount.
  void incMem32(uint8_t Base, int32_t Disp) {
    rexOpt(0, 0, Base);
    u8(0xFF);
    mem(0, Base, Disp);
  }
  /// mov qword [base + disp32], imm32 (sign-extended).
  void movMem64Imm32(uint8_t Base, int32_t Disp, uint32_t Imm) {
    rex(1, 0, Base);
    u8(0xC7);
    mem(0, Base, Disp);
    u32(Imm);
  }

  //===-- Byte registers (al, cl, dl, bl only: no REX needed) ------------//

  /// setcc r8
  void setcc(Cc C, uint8_t R) {
    assert(R < 4 && "byte register without REX");
    u8(0x0F);
    u8(0x90 + C);
    modrmReg(0, R);
  }
  /// and dst8, src8
  void andRegReg8(uint8_t Dst, uint8_t Src) {
    assert(Dst < 4 && Src < 4 && "byte register without REX");
    u8(0x20);
    modrmReg(Src, Dst);
  }
  /// or dst8, src8
  void orRegReg8(uint8_t Dst, uint8_t Src) {
    assert(Dst < 4 && Src < 4 && "byte register without REX");
    u8(0x08);
    modrmReg(Src, Dst);
  }
  /// movzx dst32, src8
  void movzxRegReg8(uint8_t Dst, uint8_t Src) {
    assert(Dst < 4 && Src < 4 && "byte register without REX");
    u8(0x0F);
    u8(0xB6);
    modrmReg(Dst, Src);
  }

  //===-- SSE2 scalar doubles ---------------------------------------------//

  void movsdXmmMem(uint8_t X, uint8_t Base, int32_t Disp) {
    sse(0xF2, 0x10, X, Base, Disp);
  }
  void movsdMemXmm(uint8_t Base, int32_t Disp, uint8_t X) {
    sse(0xF2, 0x11, X, Base, Disp);
  }
  void addsdXmmMem(uint8_t X, uint8_t Base, int32_t Disp) {
    sse(0xF2, 0x58, X, Base, Disp);
  }
  void subsdXmmMem(uint8_t X, uint8_t Base, int32_t Disp) {
    sse(0xF2, 0x5C, X, Base, Disp);
  }
  void mulsdXmmMem(uint8_t X, uint8_t Base, int32_t Disp) {
    sse(0xF2, 0x59, X, Base, Disp);
  }
  void divsdXmmMem(uint8_t X, uint8_t Base, int32_t Disp) {
    sse(0xF2, 0x5E, X, Base, Disp);
  }
  void ucomisdXmmMem(uint8_t X, uint8_t Base, int32_t Disp) {
    sse(0x66, 0x2E, X, Base, Disp);
  }
  void cvtsi2sdXmmMem32(uint8_t X, uint8_t Base, int32_t Disp) {
    sse(0xF2, 0x2A, X, Base, Disp);
  }
  void cvttsd2siRegMem(uint8_t Dst, uint8_t Base, int32_t Disp) {
    sse(0xF2, 0x2C, Dst, Base, Disp);
  }
  //===-- SSE2 register-register forms (the regalloc'd templates) --------//

  /// movaps: the full-register xmm copy. Unlike movsd's merging reg-reg
  /// form it carries no dependency on the destination's old value, so
  /// it is the right instruction for copying scalar doubles between
  /// register homes (upper lanes are never live here).
  void movapsXmmXmm(uint8_t Dst, uint8_t Src) {
    rexOpt(0, Dst, Src);
    u8(0x0F);
    u8(0x28);
    modrmReg(Dst, Src);
  }
  void addsdXmmXmm(uint8_t Dst, uint8_t Src) { sseRR(0xF2, 0x58, Dst, Src); }
  void subsdXmmXmm(uint8_t Dst, uint8_t Src) { sseRR(0xF2, 0x5C, Dst, Src); }
  void mulsdXmmXmm(uint8_t Dst, uint8_t Src) { sseRR(0xF2, 0x59, Dst, Src); }
  void divsdXmmXmm(uint8_t Dst, uint8_t Src) { sseRR(0xF2, 0x5E, Dst, Src); }
  void ucomisdXmmXmm(uint8_t A, uint8_t B) { sseRR(0x66, 0x2E, A, B); }
  /// cvtsi2sd xmm, r32
  void cvtsi2sdXmmReg32(uint8_t X, uint8_t Src) {
    sseRR(0xF2, 0x2A, X, Src);
  }
  /// cvttsd2si r32, xmm
  void cvttsd2siRegXmm(uint8_t Dst, uint8_t X) {
    sseRR(0xF2, 0x2C, Dst, X);
  }
  /// movq xmm, r64 (raw bit copy: materializing double immediates into a
  /// register-homed slot).
  void movqXmmReg64(uint8_t X, uint8_t R) {
    u8(0x66);
    rex(1, X, R);
    u8(0x0F);
    u8(0x6E);
    modrmReg(X, R);
  }

  /// movsd xmm, [base + index*2^scale]
  void movsdXmmMemIndex(uint8_t X, uint8_t Base, uint8_t Index,
                        uint8_t ScaleLog) {
    u8(0xF2);
    if (X >= 8 || Base >= 8 || Index >= 8)
      u8(0x40 | ((X >> 3) << 2) | ((Index >> 3) << 1) | (Base >> 3));
    u8(0x0F);
    u8(0x10);
    memIndex(X, Base, Index, ScaleLog);
  }

  /// movsd [base + index*2^scale], xmm
  void movsdMemIndexXmm(uint8_t Base, uint8_t Index, uint8_t ScaleLog,
                        uint8_t X) {
    u8(0xF2);
    if (X >= 8 || Base >= 8 || Index >= 8)
      u8(0x40 | ((X >> 3) << 2) | ((Index >> 3) << 1) | (Base >> 3));
    u8(0x0F);
    u8(0x11);
    memIndex(X, Base, Index, ScaleLog);
  }

  //===-- Control flow ----------------------------------------------------//

  void callReg(uint8_t R) {
    if (R >= 8)
      u8(0x41);
    u8(0xFF);
    modrmReg(2, R); // /2 = call
  }
  /// Emits `jcc rel32` with a zero placeholder; returns the offset of the
  /// rel32 field for patchRel32.
  size_t jcc32(Cc C) {
    u8(0x0F);
    u8(0x80 + C);
    size_t At = size();
    u32(0);
    return At;
  }
  size_t jmp32() {
    u8(0xE9);
    size_t At = size();
    u32(0);
    return At;
  }
  void ret() { u8(0xC3); }
  void ud2() {
    u8(0x0F);
    u8(0x0B);
  }

private:
  void rex(uint8_t W, uint8_t R, uint8_t B) {
    u8(0x40 | (W << 3) | ((R >> 3) << 2) | (B >> 3));
  }
  void rexOpt(uint8_t W, uint8_t R, uint8_t B) {
    if (W || R >= 8 || B >= 8)
      rex(W, R, B);
  }
  void rexIdx(uint8_t W, uint8_t R, uint8_t X, uint8_t B) {
    if (W || R >= 8 || X >= 8 || B >= 8)
      u8(0x40 | (W << 3) | ((R >> 3) << 2) | ((X >> 3) << 1) | (B >> 3));
  }
  /// [base + index*2^scale], no displacement (base must not be rbp/r13,
  /// index must not be rsp).
  void memIndex(uint8_t Reg, uint8_t Base, uint8_t Index,
                uint8_t ScaleLog) {
    assert((Base & 7) != 5 && (Index & 7) != 4 && "unencodable SIB");
    u8(0x04 | ((Reg & 7) << 3)); // mod=00, rm=100 (SIB)
    u8((ScaleLog << 6) | ((Index & 7) << 3) | (Base & 7));
  }
  void modrmReg(uint8_t Reg, uint8_t Rm) {
    u8(0xC0 | ((Reg & 7) << 3) | (Rm & 7));
  }
  /// [base + disp32]; rsp/r12 bases get the mandatory SIB byte.
  void mem(uint8_t Reg, uint8_t Base, int32_t Disp) {
    uint8_t Rm = Base & 7;
    if (Rm == 4) {
      u8(0x84 | ((Reg & 7) << 3));
      u8(0x24);
    } else {
      u8(0x80 | ((Reg & 7) << 3) | Rm);
    }
    u32(static_cast<uint32_t>(Disp));
  }
  void alu32(uint8_t Op, uint8_t Reg, uint8_t Base, int32_t Disp) {
    rexOpt(0, Reg, Base);
    u8(Op);
    mem(Reg, Base, Disp);
  }
  /// 81 /ext: 32-bit ALU op with imm32 on a register operand.
  void aluImm32(uint8_t Ext, uint8_t R, uint32_t Imm) {
    rexOpt(0, 0, R);
    u8(0x81);
    modrmReg(Ext, R);
    u32(Imm);
  }
  void sse(uint8_t Prefix, uint8_t Op, uint8_t X, uint8_t Base,
           int32_t Disp) {
    u8(Prefix);
    if (X >= 8 || Base >= 8)
      u8(0x40 | ((X >> 3) << 2) | (Base >> 3));
    u8(0x0F);
    u8(Op);
    mem(X, Base, Disp);
  }
  void sseRR(uint8_t Prefix, uint8_t Op, uint8_t Dst, uint8_t Src) {
    u8(Prefix);
    rexOpt(0, Dst, Src);
    u8(0x0F);
    u8(Op);
    modrmReg(Dst, Src);
  }
};

} // namespace rjit

#endif // RJIT_NATIVE_EMITTER_H
