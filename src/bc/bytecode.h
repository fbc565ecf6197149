//===-- bc/bytecode.h - Baseline bytecode format -----------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The baseline tier's stack bytecode. This is the "source" format of the
/// optimizing compiler (paper §2: source -> BC -> native, with the BC
/// state bridging both ends of OSR): deoptimization resumes the
/// interpreter at a bytecode pc with a reconstructed operand stack and
/// environment, and the DeoptContext is expressed in terms of bytecode
/// program counters, operand-stack types and environment types.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_BC_BYTECODE_H
#define RJIT_BC_BYTECODE_H

#include "bc/feedback.h"
#include "runtime/value.h"
#include "support/interner.h"

#include <memory>
#include <string>
#include <vector>

namespace rjit {

/// Bytecode operations. Every instruction has up to two int32 operands.
enum class Opcode : uint8_t {
  PushConst,   ///< A: constant pool index                         [+1]
  LdVar,       ///< A: symbol, B: type feedback index              [+1]
  StVar,       ///< A: symbol; pops value                          [-1]
  StVarSuper,  ///< A: symbol; <<- semantics                       [-1]
  Dup,         ///< duplicate top of stack                         [+1]
  Pop,         ///< drop top of stack                              [-1]
  PopN,        ///< A: count                                       [-A]
  MkClosure,   ///< A: function index in module                    [+1]
  Call,        ///< A: #args, B: call feedback; [f a1..aN] -> [r]  [-A]
  BinBc,       ///< A: BinOp, B: type feedback of lhs (B+1: rhs)   [-1]
  NegBc,       ///< unary minus                                    [ 0]
  NotBc,       ///< logical not                                    [ 0]
  AsLogicalBc, ///< coerce top to scalar logical                   [ 0]
  Extract2,    ///< B: container type feedback; [x i] -> [v]       [-1]
  Extract1,    ///< B: container type feedback; [x i] -> [v]       [-1]
  SetIdx2,     ///< A: symbol, B: feedback; [i v] -> [v]           [-1]
  SetIdx1,     ///< A: symbol, B: feedback; [i v] -> [v]           [-1]
  Branch,      ///< A: target pc; B: branch feedback (backedges)   [ 0]
  BranchFalse, ///< A: target pc; pops condition                   [-1]
  ForStep,     ///< A: loop var symbol, B: exit pc; see below      [ 0]
  Return,      ///< pops result, leaves activation                 [-1]
};

/// ForStep operates on the two hidden loop slots [seq counter] kept on the
/// operand stack: it increments the counter; when past length(seq) it jumps
/// to the exit pc (which pops the slots), otherwise it binds the loop
/// variable to the next element and falls through into the body.

const char *opcodeName(Opcode Op);

/// One bytecode instruction.
struct BcInstr {
  Opcode Op;
  int32_t A = 0;
  int32_t B = 0;
};

/// A compiled bytecode body: instructions plus constant pool.
struct Code {
  std::vector<BcInstr> Instrs;
  std::vector<Value> Consts;
  /// Per call-feedback slot: the variable the call reads its callee from
  /// when the callee expression is a plain variable, else NoSymbol. The
  /// deoptless feedback cleanup uses it to find every call through a
  /// variable that was rebound.
  std::vector<Symbol> CallVars;

  int32_t addConst(Value V) {
    Consts.push_back(std::move(V));
    return static_cast<int32_t>(Consts.size() - 1);
  }
};

/// A function: parameters, bytecode and profiling state. Optimized
/// versions live in the VM layer's per-function tier state (keeps the
/// bytecode library independent of the JIT).
class Function {
public:
  Function(Symbol Name, std::vector<Symbol> Params)
      : Name(Name), Params(std::move(Params)) {}

  Symbol Name;
  std::vector<Symbol> Params;
  Code BC;
  FeedbackTable Feedback;
  uint64_t CallCount = 0;
  /// The parent of every environment this function runs in is the global
  /// environment (or the function runs in it): true for the top level
  /// and for the functions it defines. Their free variables are globals.
  bool GlobalScope = false;

  /// Functions referenced by this function's MkClosure instructions
  /// (A operand indexes into this vector). Owned by the Module.
  std::vector<Function *> InnerFns;
};

/// The name compileToBc gives a module's top level: the one function that
/// runs in the global environment.
inline Symbol topLevelName() {
  static const Symbol S = symbol("<top>");
  return S;
}

/// A compilation unit: all functions of a program; Top is the entry.
struct Module {
  std::vector<std::unique_ptr<Function>> Fns;
  Function *Top = nullptr;

  Function *addFunction(Symbol Name, std::vector<Symbol> Params) {
    Fns.push_back(std::make_unique<Function>(Name, std::move(Params)));
    return Fns.back().get();
  }
};

/// Renders \p C as readable assembly (tests, debugging).
std::string disassemble(const Code &C);

} // namespace rjit

#endif // RJIT_BC_BYTECODE_H
