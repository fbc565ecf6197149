//===-- runtime/context.cpp - One execution context per Vm ----------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/context.h"

#include <cassert>

using namespace rjit;

namespace {

/// The calling thread's installed context; null outside a ContextScope.
thread_local ExecContext *Current = nullptr;

} // namespace

ExecContext &rjit::currentContext() {
  if (Current)
    return *Current;
  static ExecContext Default(nullptr, /*Executor=*/false);
  return Default;
}

ContextScope::ContextScope(ExecContext &C) {
  assert(!Current && "only one Vm may be active per thread");
  Current = &C;
}

ContextScope::~ContextScope() { Current = nullptr; }

VmStats &rjit::stats() { return currentContext().Stats; }

obs::VmMetrics &rjit::obs::metrics() { return currentContext().Metrics; }
