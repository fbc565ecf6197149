//===-- bench/suite/programs.h - The evaluation workloads --------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mini-R programs behind every experiment in the paper's evaluation:
/// the Ř main benchmark suite used for Fig. 6 (random mis-speculation),
/// the motivating `sum` (Fig. 4), the column-wise sum of Listing 8
/// (Fig. 10), the ray tracer (Figs. 8/9) and the three reoptimization
/// benchmarks (Fig. 11). Sizes are scaled down from the paper's testbed
/// so the whole harness runs in CI time; every program's default size is
/// a constant that benches can override by prepending an assignment.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_BENCH_SUITE_PROGRAMS_H
#define RJIT_BENCH_SUITE_PROGRAMS_H

#include <cstddef>
#include <string>

namespace rjit::suite {

/// One benchmark program: function definitions + per-iteration driver.
struct Program {
  const char *Name;
  const char *Setup;  ///< defines functions and data; run once
  const char *Driver; ///< one in-process iteration; returns a checksum
};

/// The Ř main-suite programs used by the Fig. 6 experiment (the paper
/// excludes nbody_naive there; so do we).
const Program *mainSuite(size_t &Count);

/// Looks up any program (main suite or the named extras below) by name;
/// returns null if unknown.
const Program *byName(const std::string &Name);

/// Extra named programs: "sum" (Fig. 4), "colsum" (Fig. 10), "raytrace"
/// (Figs. 8/9), "microbenchmark", "rsa", "shared" (Fig. 11).
const Program *extras(size_t &Count);

/// fig_native's kernel: defines the accessor get and
/// colsum(m, w, nr, nc, f), fig_licm's hoisted-clean column sum widened to
/// two accumulator chains. native_test pins its register allocation.
extern const char *const NativeColsumSetup;

} // namespace rjit::suite

#endif // RJIT_BENCH_SUITE_PROGRAMS_H
