//===-- tests/testutil.h - Shared test helpers -------------------*- C++ -*-===//

#ifndef RJIT_TESTS_TESTUTIL_H
#define RJIT_TESTS_TESTUTIL_H

#include "bc/compiler.h"
#include "bc/interp.h"
#include "exec/backend.h"
#include "lang/parser.h"
#include "runtime/builtins.h"
#include "runtime/context.h"
#include "runtime/env.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace rjit {

/// A baseline-only evaluation fixture: parses, compiles to bytecode and
/// interprets in a fresh global environment with builtins installed.
/// Installs its own execution context, exactly like a Vm: programs that
/// define functions strand Global<->closure reference cycles that
/// refcounting alone cannot free, so the context's heap collects them (the
/// leak-checked CI jobs run with no suppressions), and compiles and runs
/// count into the context's stats().
class BaselineSession {
public:
  BaselineSession() : Scope(Ctx) {
    Global = new Env(nullptr);
    Global->retain();
    installBuiltins(*Global);
  }
  ~BaselineSession() {
    Mods.clear();
    Global->release();
    Ctx.heap()->collect(); // Global<->closure cycles from definitions
    Ctx.heap()->orphanAll();
  }

  /// Evaluates \p Source; gtest-fails and returns NULL on front-end errors.
  Value eval(const std::string &Source) {
    ParseResult P = parseProgram(Source);
    EXPECT_TRUE(P.ok()) << P.Error;
    if (!P.ok())
      return Value::nil();
    BcResult B = compileToBc(*P.Ast);
    EXPECT_TRUE(B.ok()) << B.Error;
    if (!B.ok())
      return Value::nil();
    Mods.push_back(std::move(B.Mod));
    return interpret(Mods.back()->Top, Global);
  }

  Env *global() { return Global; }
  Module *lastModule() { return Mods.back().get(); }

private:
  ExecContext Ctx;
  ContextScope Scope;
  Env *Global;
  std::vector<std::unique_ptr<Module>> Mods;
};

/// A minimal executable (one return instruction) for code-table tests.
inline std::unique_ptr<ExecutableCode> dummyCode() {
  auto F = std::make_unique<LowFunction>();
  F->Code.push_back({LowOp::RetLow});
  F->NumSlots = 1;
  return interpBackend().prepare(std::move(F));
}

} // namespace rjit

#endif // RJIT_TESTS_TESTUTIL_H
