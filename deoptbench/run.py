#!/usr/bin/env python3
"""Build and run the seeded deoptless benchmark.

One workload, one pass:

    python3 deoptbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

prints the per-program rows, then as its last line one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics.

Every workload, both passes:

    python3 deoptbench/run.py --seed 1 [--seconds S] [--check]

prints every metric with its unit and writes bench_results_<seed>.json.
--check also reruns the traced pass of the single-threaded workloads
(steady, misspec, phases) with the same seed and fails unless every count
repeats exactly, and validates the results file against BENCHMARK.json.
Counts come from a pass's first round, so the reruns are short.

Run from anywhere; the script builds the benchmark program from the source
tree it sits in, into .bench_build/deoptbench at the tree's root.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "deoptbench")
BINARY = os.path.join(BUILD_DIR, "deoptbench")
# Sources the benchmark is built from; their absence means there is nothing to
# benchmark, which must fail fast rather than wait on a compiler.
REQUIRED = ["CMakeLists.txt", "src/vm/vm.h", "bench/suite/harness.h",
            "bench/server_harness.h", "deoptbench/CMakeLists.txt"]
BATCH_WORKLOADS = ["steady", "misspec", "phases"]
# Units whose values are counts or ratios of counts: these must repeat
# exactly under one seed on the single-threaded workloads.
COUNT_UNITS = {"count", "ratio", "checks/iter", "checks/hit"}
# Counts come from the first round of a pass; the shortest traced pass
# (two rounds) repeats it.
CHECK_SECONDS = 1
PASS_TIMEOUT_S = 170


def fail(msg, code=1):
    print("deoptbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build():
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("source tree incomplete, missing: " + ", ".join(missing), 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    # Configure every time (cheap once cached): make alone does not notice
    # a target that the build files gained since the last configure.
    steps = [["cmake", "-S", os.path.join(ROOT, "deoptbench"), "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "deoptbench",
              "-j", "4"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=800).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)


def run_pass(workload, seed, seconds, trace):
    """Runs one pass; returns (human-readable lines, parsed result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=PASS_TIMEOUT_S,
                           universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %ds" % (workload, PASS_TIMEOUT_S))
    lines = p.stdout.rstrip("\n").split("\n")
    if p.returncode != 0 or not lines or not lines[-1].startswith("{"):
        fail("benchmark failed on %s (exit %d)" % (workload, p.returncode))
    return lines[:-1], json.loads(lines[-1])


def with_units(spec, raw, trace):
    """Attaches units from BENCHMARK.json; refuses missing or extra names."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in raw]
    extra = [n for n in raw if n not in names]
    if missing or extra:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    return {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]}
            for m in declared}


def single(args, spec):
    human, res = run_pass(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(human))
    metrics = with_units(spec, res["metrics"], args.trace)
    print(json.dumps({"correct": res["failed"] == 0 and res["attempted"] > 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))


def validate(spec, results):
    """Every workload holds exactly the declared metrics, with their units."""
    problems = []
    for w in spec["workloads"]:
        got = results["workloads"].get(w["name"])
        if got is None:
            problems.append("%s: missing" % w["name"])
            continue
        for key in ("end_to_end", "per_layer"):
            want = {m["name"]: m["unit"] for m in spec[key]}
            have = {k: v["unit"] for k, v in got[key].items()}
            for n in sorted(set(want) | set(have)):
                if n not in have:
                    problems.append("%s: missing %s" % (w["name"], n))
                elif n not in want:
                    problems.append("%s: extra %s" % (w["name"], n))
                elif want[n] != have[n]:
                    problems.append("%s: %s has unit %s, declared %s"
                                    % (w["name"], n, have[n], want[n]))
    return problems


def full(args, spec):
    start = time.monotonic()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    results = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            human, res = run_pass(w, args.seed, args.seconds, trace)
            print("\n".join(human))
            entry[key] = with_units(spec, res["metrics"], trace)
            entry.setdefault("attempted", 0)
            entry.setdefault("failed", 0)
            entry["attempted"] += res["attempted"]
            entry["failed"] += res["failed"]
            entry["rows" if trace == 0 else "traced_rows"] = res["rows"]
            ok = ok and res["failed"] == 0
        results["workloads"][w] = entry
        print("## %s: %d results checked, %d wrong"
              % (w, entry["attempted"], entry["failed"]))
        for key in ("end_to_end", "per_layer"):
            for name, m in entry[key].items():
                print("%-8s %-44s %14.6g %s" % (w, name, m["value"], units[name]))

    out = os.path.join(os.getcwd(), "bench_results_%d.json" % args.seed)
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
    print("# results: %s" % out)

    if args.check:
        problems = validate(spec, results)
        for w, entry in results["workloads"].items():
            if entry["per_layer"]["trace.dropped"]["value"]:
                problems.append("%s: the tracer dropped events" % w)
        for w in BATCH_WORKLOADS:
            _, again = run_pass(w, args.seed, CHECK_SECONDS, 1)
            for name, m in results["workloads"][w]["per_layer"].items():
                if m["unit"] in COUNT_UNITS and again["metrics"][name] != m["value"]:
                    problems.append("%s: %s not repeatable: %s then %s"
                                    % (w, name, m["value"], again["metrics"][name]))
        for p in problems:
            print("CHECK FAILED: " + p, file=sys.stderr)
        ok = ok and not problems
        print("# check: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    print("# wall time, build excluded: %.0f s" % (time.monotonic() - start))
    sys.exit(0 if ok else 1)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all, both passes)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="with --workload: 0 end-to-end, 1 per-layer pass")
    ap.add_argument("--check", action="store_true",
                    help="without --workload: also check count repeatability "
                         "and the results file")
    args = ap.parse_args()
    build()
    if args.workload:
        single(args, spec)
    else:
        full(args, spec)


if __name__ == "__main__":
    main()
