//===-- exec/backend.cpp - Pluggable execution backends -------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exec/backend.h"
#include "lowcode/exec.h"

#include <cassert>

using namespace rjit;

namespace {

/// Interpreter-backed executable: invoke() is the threaded LowCode engine.
class InterpExecutable final : public ExecutableCode {
public:
  explicit InterpExecutable(std::unique_ptr<LowFunction> L)
      : ExecutableCode(std::move(L)) {}

  const char *backendName() const override { return "interp"; }

protected:
  Value invoke(std::vector<Value> &&Args, Env *CurEnv,
               Env *ParentEnv) override {
    return runLow(low(), std::move(Args), CurEnv, ParentEnv);
  }
};

class InterpBackend final : public ExecBackend {
public:
  const char *name() const override { return "interp"; }

  std::unique_ptr<ExecutableCode>
  prepare(std::unique_ptr<LowFunction> Low) override {
    assert(Low && "prepare() requires lowered code");
    return std::make_unique<InterpExecutable>(std::move(Low));
  }
};

} // namespace

ExecBackend &rjit::interpBackend() {
  static InterpBackend B;
  return B;
}

std::unique_ptr<ExecutableCode>
rjit::prepareExecutable(ExecBackend *Backend,
                        std::unique_ptr<LowFunction> Low) {
  return backendOr(Backend).prepare(std::move(Low));
}
