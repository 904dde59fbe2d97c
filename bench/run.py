#!/usr/bin/env python3
"""Benchmark of the dlcz_swap package, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload mc_sampling --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

`--trace 0` prints the end-to-end metrics of one workload; `--trace 1`
alternates untraced and traced rounds of the same operations and prints
the per-layer metrics from the spans of the traced rounds, plus the
tracing overhead.  `--workload all` runs every workload both ways, each in
its own process.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

The package is imported from `src/` under the current directory; the run
exits with code 2 and prints no result when it is not there.  Every
process, this one and the commands it starts, is held to one BLAS thread
per library: numpy and scipy each load their own OpenBLAS, and each
library's pool adds threads, so one thread apiece keeps the process at or
below the core count.  Scratch files go to `.bench_work/` under the
current directory.

Every end-to-end time is scaled by a reference loop timed between the
operations (bench/reference.py), because the host's speed drifts by whole
runs; the report prints each raw time beside its scaled one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from tracing import Tracer, layer_metrics, process_threads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("mc_sampling", "engine_sweep", "cli_figures")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_s_p50": "s", "op_s_tail": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every operation, for the self-test")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# CPUs this process may use when it starts, before pin_cpu narrows them.
NPROC = len(os.sched_getaffinity(0))


def pin_cpu() -> int:
    """Hold this process and the ones it starts to one CPU; return it.

    Each vCPU of the host drifts between its speeds on its own, so the
    reference samples and the work they scale must run on the same one.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def git_revision(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unavailable (not a git checkout)"
    with open(head) as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(root, ".git", name)
    if os.path.isfile(loose):
        with open(loose) as handle:
            return handle.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    return f"unresolved ({name})"


def run_record(root: str, seed: int) -> list:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (TypeError, KeyError):  # older builds have no dict form
            return "unknown"

    with open("/proc/self/maps") as handle:
        libs = sorted({os.path.basename(line.split()[-1]) for line in handle
                       if "openblas" in line.split()[-1].lower()})
    cpu = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return [
        f"python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}",
        f"blas: numpy {blas(numpy)}, scipy {blas(scipy)}; loaded {', '.join(libs) or 'none'}",
        f"blas threads per library: {os.environ['OPENBLAS_NUM_THREADS']} "
        f"(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS)",
        f"nproc {NPROC}, cpu {cpu}, {platform.machine()}",
        f"revision {git_revision(root)}",
        f"workload seed {seed}",
    ]


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, n, beyond).  With n > 10 samples that is
    the 100*(n-10)/n percentile, interpolated as the median is.
    """
    xs = sorted(values)
    n = len(xs)
    pos = (n - 1) * (n - 10) / n
    k = int(pos)
    value = xs[k] + (pos - k) * (xs[k + 1] - xs[k])
    return value, 100.0 * (n - 10) / n, n, n - 1 - k


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def probe_setup(args, pacer: Pacer) -> tuple:
    """Set-up time of fresh processes: start to the first timed operation.

    Returns the raw times and the times scaled by the reference samples
    taken before and after each set-up.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times = []
    scaled = []
    for _ in range(SETUP_SAMPLES):
        before = pacer.sample()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
        if proc.returncode != 0 or line != "ready":
            raise RuntimeError(f"set-up probe failed: exit {proc.returncode}, {line!r}")
        times.append(elapsed)
        pacer.sample()
        scaled.append(pacer.scale(elapsed, before))
    return times, scaled


class Loop:
    """The closed loop: rounds of operations, timed one at a time."""

    def __init__(self, workload, tracer, pacer: Pacer):
        from workloads import MODULES
        self.modules = MODULES
        self.workload = workload
        self.tracer = tracer
        self.pacer = pacer
        self.timed = []  # (traced, kind, raw seconds, index of the reference before)
        self.round_kinds = {}
        self.walls = {False: [], True: []}
        self.trials = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.failures = []  # (op description, check id, message)
        self.threads = 0
        self.import_s = []

    def run_round(self, ops, traced: bool) -> None:
        w = self.workload
        wall = 0.0
        trials = 0
        for i, op in enumerate(ops):
            before = self.pacer.due()
            install = traced and w.in_process
            if install:
                self.tracer.op_id = i
                self.tracer.install(self.modules)
            start = time.perf_counter()
            try:
                result = w.run_op(op, traced)
                error = None
            except Exception:  # a failed operation is counted, the loop goes on
                result, error = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
            if install:
                self.tracer.uninstall()
            wall += elapsed
            self.timed.append((traced, op[0], elapsed, before))
            self.attempted += 1
            if error is not None:
                fails = [("exception", error.strip())]
            else:
                fails = w.check(op, result)
                trials += w.op_trials(op, result)
                self.threads = max(self.threads, process_threads())
                if not w.in_process:
                    self._child_record(result, traced, i)
            self.failures += [(repr(op), cid, msg) for cid, msg in fails]
            self.failed += bool(fails)
        self.walls[traced].append(wall)
        self.trials[traced].append(trials)

    def _child_record(self, result, traced, i):
        """Threads, import time and spans of the command's process."""
        record = self.workload.child_record(result)
        if record is None:
            return
        self.threads = max(self.threads, record["threads"])
        if traced:
            self.tracer.op_id = i
            self.tracer.extend(record["spans"])
            self.import_s.append(record["import_s"])

    def run(self, seconds: float, trace: bool) -> None:
        start = time.perf_counter()
        rounds = 0
        min_rounds = 1 if trace else self.workload.min_rounds
        while True:
            ops = self.workload.round_ops()
            if not rounds:
                print(f"inputs of the first round: {ops}")
                for op in ops:
                    self.round_kinds[op[0]] = self.round_kinds.get(op[0], 0) + 1
            self.run_round(ops, False)
            if trace:
                self.run_round(ops, True)
            rounds += 1
            if rounds >= min_rounds and time.perf_counter() - start >= seconds:
                break
        self.pacer.sample()
        extra, fails = self.workload.finish()
        self.attempted += extra
        self.failures += [("finish", cid, msg) for cid, msg in fails]
        self.failed += bool(fails)

    def op_times(self, traced: bool = False, kind=None, scaled: bool = True) -> list:
        return [self.pacer.scale(raw, before) if scaled else raw
                for t, k, raw, before in self.timed
                if t == traced and (kind is None or k == kind)]

    def typical_round(self, traced: bool, scaled: bool = True) -> list:
        """One round's operation times, each its kind's median time.

        A round mixes kinds of operation whose times differ severalfold
        (cli_figures: fig3 against fig4), so the median of all operations
        jumps between kinds with the noise; the median of this list stays
        on one kind.  wall_s is its sum, op_s_p50 its median.
        """
        out = []
        for kind, count in self.round_kinds.items():
            out += [statistics.median(self.op_times(traced, kind, scaled))] * count
        return out

    def wall(self, traced: bool, scaled: bool = True) -> float:
        return sum(self.typical_round(traced, scaled))


def fmt(value) -> str:
    return f"{value:.6g}"


def run_workload(args, root: str) -> int:
    import workloads
    from reference import REF_S, Pacer

    import dlcz_swap
    src = os.path.join(root, "src")
    if not os.path.abspath(dlcz_swap.__file__).startswith(src + os.sep):
        print(f"bench: dlcz_swap imported from {dlcz_swap.__file__}, not {src}", file=sys.stderr)
        return 2

    pinned = pin_cpu()
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        workload.setup()
        if args.probe_setup:
            print("ready", flush=True)
            return 0

        print(f"== bench {args.workload}, seed {args.seed}, trace {args.trace}, "
              f"size {args.size}, {fmt(args.seconds)} s")
        for line in run_record(root, args.seed):
            print("run record:", line)
        print(f"pinned: this process and every process it starts run on cpu {pinned} only")
        print(f"loop: closed, one client; round = {workload.describe}")

        pacer = Pacer()
        setup_raw, setup = ([], []) if args.trace else probe_setup(args, pacer)
        tracer = Tracer() if args.trace else None
        loop = Loop(workload, tracer, pacer)
        loop.run(args.seconds, bool(args.trace))
        failed = loop.failed
        unexpected = [f for f in loop.failures if f[1] not in workloads.KNOWN_DEFECTS]

        untraced = loop.walls[False]
        print(f"rounds {len(untraced)}{' untraced + traced pairs' if args.trace else ''}, "
              f"operations attempted {loop.attempted}, failed {failed}")
        print(f"error_rate = {failed}/{loop.attempted} = {fmt(failed / loop.attempted)} "
              f"(failed operations / attempted operations)")
        for op, cid, msg in loop.failures:
            print(f"FAIL [{cid}] {op}: {msg}")
        for cid in sorted({f[1] for f in loop.failures} & set(workloads.KNOWN_DEFECTS)):
            print(f"known defect [{cid}], counted as failed above: "
                  f"{workloads.KNOWN_DEFECTS[cid]}")
        print(f"threads: max {loop.threads} per process (nproc {NPROC})")
        refs = pacer.samples
        print(f"reference: {len(refs)} samples, median {fmt(statistics.median(refs))} s, "
              f"min {fmt(min(refs))} s, max {fmt(max(refs))} s; times below are scaled "
              f"to REF_S = {REF_S} s (see bench/reference.py), raw in brackets")
        print("operation time by kind, median (count): " + ", ".join(
            f"{kind} {fmt(statistics.median(loop.op_times(False, kind)))} s "
            f"[{fmt(statistics.median(loop.op_times(False, kind, scaled=False)))} s] "
            f"({count} per round)" for kind, count in loop.round_kinds.items()))

        wall = loop.wall(False)
        trials = statistics.median(loop.trials[False])
        if trials:
            print(f"trials_per_s = {fmt(trials / wall)} 1/s ({trials:,.0f} MC trials per "
                  f"round / wall_s)")
        for line in workload.extra_lines():
            print(line)

        if args.trace:
            overhead = loop.wall(True) - wall
            print(f"tracing overhead: traced wall_s {fmt(loop.wall(True))} s "
                  f"- untraced wall_s {fmt(wall)} s = {fmt(overhead)} s")
            metrics = layer_metrics(tracer.spans, len(loop.walls[True]),
                                    loop.import_s, overhead)
            trace_path = os.path.join(root, ".bench_work",
                                      f"trace-{args.workload}-seed{args.seed}.json")
            with open(trace_path, "w") as handle:
                json.dump({"record": run_record(root, args.seed), "spans": tracer.spans},
                          handle)
            print(f"spans: {len(tracer.spans)} written to {os.path.relpath(trace_path, root)}")
        else:
            ops = loop.op_times()
            n = len(ops)
            if n > 10:
                value, pct, n, beyond = tail(ops)
                print(f"op_s_tail is p{pct:.1f} of {n} operations, {beyond} beyond it "
                      f"[raw {fmt(tail(loop.op_times(scaled=False))[0])} s]")
            else:
                # one sample, the maximum, would carry all of a run's noise
                value = max(loop.typical_round(False))
                print(f"op_s_tail: {n} operations leave no percentile with ten beyond it, "
                      f"so it is the slowest kind's median time "
                      f"[raw {fmt(max(loop.typical_round(False, False)))} s]")
            values = {"setup_s": statistics.median(setup), "wall_s": wall,
                      "op_s_p50": statistics.median(loop.typical_round(False)),
                      "op_s_tail": value,
                      "peak_rss_mb": peak_rss_mb()}
            print(f"setup_s is the median of {len(setup)} fresh-process set-ups: "
                  + ", ".join(f"{fmt(s)} [{fmt(r)}]" for s, r in zip(setup, setup_raw)))
            print(f"wall_s is one round built from each kind's median operation time "
                  f"[raw {fmt(loop.wall(False, scaled=False))} s]; the {len(untraced)} rounds "
                  f"as run took min {fmt(min(untraced))} s, median "
                  f"{fmt(statistics.median(untraced))} s, max {fmt(max(untraced))} s raw")
            print(f"op_s_p50 is the median of one round with each operation at its kind's "
                  f"median [raw {fmt(statistics.median(loop.typical_round(False, False)))} s]; "
                  f"the median of all {n} operations is "
                  f"{fmt(statistics.median(ops))} s")
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        for name, m in metrics.items():
            print(f"{name} = {fmt(m['value'])} {m['unit']}")

        result = {"correct": not unexpected, "attempted": loop.attempted,
                  "failed": failed, "metrics": metrics}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload untraced and traced, each in a process of its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.rstrip("\n").splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"bench: {name} trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            part = json.loads(lines[-1])
            merged["correct"] = merged["correct"] and part["correct"]
            merged["attempted"] += part["attempted"]
            merged["failed"] += part["failed"]
            for key, value in part["metrics"].items():
                merged["metrics"][f"{name}.{key}"] = value
            print()
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dlcz_swap", "__init__.py")):
        print(f"bench: no dlcz_swap package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    tmp = os.path.join(root, ".bench_work", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    sys.path.insert(0, src)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
