#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Run from the repository root.  It checks that

* every workload, untraced and traced, prints each metric BENCHMARK.json
  names, with its unit, in its report and in its JSON result;
* each output check fires when it is given a wrong expected value;
* no process had more threads than nproc;
* in a directory that holds only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Prints one line per check and exits 0 when all of them hold.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH, "run.py")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class SelfTest:
    def __init__(self):
        self.failures = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        self.failures += not ok


def check_reports(t: SelfTest, spec: dict) -> None:
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            tag = f"{workload} trace {trace}"
            lines = proc.stdout.strip().splitlines()
            t.expect(proc.returncode == 0 and bool(lines), f"{tag}: exits 0")
            if proc.returncode != 0 or not lines:
                continue
            result = json.loads(lines[-1])
            t.expect(set(result) == RESULT_KEYS and result["attempted"] >= 1,
                     f"{tag}: result has keys {sorted(RESULT_KEYS)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            t.expect(got == expected[trace],
                     f"{tag}: JSON holds every {'per-layer' if trace else 'end-to-end'} "
                     f"metric with its unit")
            missing = [k for k, unit in expected[trace].items()
                       if not re.search(rf"^{re.escape(k)} = \S+ {re.escape(unit)}$",
                                        proc.stdout, re.M)]
            t.expect(not missing, f"{tag}: report prints every metric with its unit"
                     + (f" (missing {missing})" if missing else ""))
            threads = re.search(r"^threads: max (\d+) per process \(nproc (\d+)\)$",
                                proc.stdout, re.M)
            t.expect(threads is not None and int(threads[1]) <= int(threads[2]),
                     f"{tag}: thread count within nproc"
                     + (f" ({threads[1]} <= {threads[2]})" if threads else ""))


def check_checks(t: SelfTest) -> None:
    """Each output check passes on a right expected value, fails on a wrong one."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    import workloads

    workdir = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        engine = workloads.EngineSweep(7, "tiny", workdir)
        op = ("defaults", engine.defaults.t2_us)
        report = engine.run_op(op, False)
        t.expect(engine.check(op, report) == [], "engine check passes at the golden values")
        engine.golden = {k: v * (1 + 1e-6) for k, v in engine.golden.items()}
        t.expect(any(c == "golden" for c, _ in engine.check(op, report)),
                 "engine check fires on a wrong golden value")

        mc = workloads.MCSampling(7, "tiny", workdir)
        mc.setup()
        op = mc.round_ops()[0]
        stats = mc.run_op(op, False)
        t.expect(mc.check(op, stats) == [], "MC pull check passes against the tables")
        eg = workloads.analytic.multiplexed_eg_probability(mc.params[op[0]]).exact
        wrong = [("herald A-B1", stats.n_eg_ab1, stats.n_trials, eg + 0.1)]
        t.expect(bool(workloads.pull_failures("selftest", wrong)),
                 "MC pull check fires on a wrong expected probability")

        rows = [(2.0, 0.3, 0.0), (8.0, 0.2, 0.0)]
        right = {2.0: 0.3, 8.0: 0.2}
        t.expect(workloads.engine_series_failures(rows, right) == [],
                 "fig3 engine-series check passes on matching values")
        t.expect(bool(workloads.engine_series_failures(rows, {2.0: 0.3, 8.0: 0.25})),
                 "fig3 engine-series check fires on a wrong expected value")
        flat = [(2.0, 0.0, 0.0), (8.0, 0.0, 0.0)]
        t.expect(bool(workloads.engine_series_failures(flat, {2.0: 0.0, 8.0: 0.0})),
                 "fig3 engine-series check fires on a constant series")
        t.expect(workloads.digest_failures({"a": "1"}, {"a": "1"}) == []
                 and bool(workloads.digest_failures({"a": "1"}, {"a": "2"})),
                 "repeat-bytes check fires on a changed file")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory(t: SelfTest) -> None:
    bare = os.path.join(ROOT, ".bench_work", f"selftest-bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=180)
        t.expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
                 f"bare directory: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    t = SelfTest()
    check_bare_directory(t)
    check_checks(t)
    check_reports(t, spec)
    print(f"{'all checks passed' if not t.failures else f'{t.failures} checks failed'}")
    return 1 if t.failures else 0


if __name__ == "__main__":
    sys.exit(main())
