"""Span tracing for the benchmark's traced runs, and the per-layer metrics.

A Tracer replaces each public function of the dlcz_swap layer modules at
its module attribute with a wrapper that records a span.  Calls between
modules (``fock.swap_stage(...)``) and calls inside a module (a bare
``swap_stage(...)`` resolves through the module globals, which are the
module attributes) both pass through the wrapper.  No file of the package
is edited, and uninstall() puts every original function back.

A span is the tuple
``(span_id, parent_id, op_id, name, start, end, child_s, info)``: child_s
is the time its direct child spans cover, so its self time is
``end - start - child_s``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import defaultdict

CLI_COMMANDS = ("figures_fig3", "figures_fig2", "figures_fig4", "simulate", "validate")

# Every per-layer metric a traced run prints, with its unit.  Counts and
# times are per traced round (one pass of the workload's operation list).
PER_LAYER = (
    ("protocol.run_batch.self_s", "s"),
    ("protocol.run_batch.m3.trials_per_self_s", "1/s"),
    ("protocol.run_batch.m32.trials_per_self_s", "1/s"),
    ("protocol.conditional_tables.calls", "count"),
    ("protocol.conditional_tables.builds", "count"),
    ("protocol.conditional_tables.busy_s", "s"),
    ("protocol.sweep.self_s", "s"),
    ("protocol.routed_ratio", "ratio"),
    ("protocol.swap_click_ratio", "ratio"),
    ("fock.swap_stage.n2.calls", "count"),
    ("fock.swap_stage.n2.busy_s", "s"),
    ("fock.swap_stage.n3.busy_s", "s"),
    ("fock.verification_joint.calls", "count"),
    ("fock.verification_joint.busy_s", "s"),
    ("fock.counting_joint.calls", "count"),
    ("fock.counting_joint.busy_s", "s"),
    ("fock.swap_pipeline.calls", "count"),
    ("fock.swap_pipeline.self_s", "s"),
    ("fock.verification_runs_per_point", "count"),
    ("analytic.calls", "count"),
    ("analytic.busy_s", "s"),
    ("series.atomic_write_text.calls", "count"),
    ("series.atomic_write_text.busy_s", "s"),
    ("series.bytes_written", "B"),
) + tuple((f"cli.{c}.s", "s") for c in CLI_COMMANDS) + (
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("tracing.overhead_s", "s"),
)


def process_threads() -> int:
    """Thread count of this process, from /proc/self/status."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no Threads line in /proc status")


def cli_label(argv) -> str:
    """Metric label of one CLI invocation: `figures_fig3`, `simulate`, ..."""
    argv = list(argv)
    if argv and argv[0] == "figures" and len(argv) > 1:
        return f"figures_{argv[1]}"
    return argv[0] if argv else ""


def _hooks(modules: dict) -> dict:
    """Per-function (before, after) pairs that attach counts to spans.

    before(args, kwargs) returns a state; after(state, result) returns the
    span's info.
    """
    hooks = {}
    protocol = modules.get("protocol")
    if protocol is not None:
        def batch_before(args, kwargs):
            params = args[0] if args else kwargs["params"]
            return params.m_modes

        def batch_after(m, stats):
            return {"m": m, "trials": stats.n_trials, "routed": stats.n_routed,
                    "es": stats.n_es}

        cache = protocol._tables_cached
        hooks["protocol.run_batch"] = (batch_before, batch_after)
        hooks["protocol.conditional_tables"] = (
            lambda args, kwargs: cache.cache_info().misses,
            lambda misses, _: {"builds": cache.cache_info().misses - misses})
    fock = modules.get("fock")
    if fock is not None:
        signature = inspect.signature(fock.swap_stage)

        def stage_before(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments["n_max"]

        hooks["fock.swap_stage"] = (stage_before, lambda n_max, _: {"n_max": n_max})
    if "series" in modules:
        def write_before(args, kwargs):
            text = args[1] if len(args) > 1 else kwargs["text"]
            return len(text.encode("utf-8"))

        hooks["series.atomic_write_text"] = (write_before,
                                             lambda nbytes, _: {"bytes": nbytes})
    if "cli" in modules:
        def main_before(args, kwargs):
            argv = args[0] if args else kwargs.get("argv")
            return cli_label(argv or ())

        hooks["cli.main"] = (main_before, lambda label, _: {"command": label})
    return hooks


class Tracer:
    """Records spans around the public functions of the layer modules."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._next_id = 0
        self._originals = []

    def install(self, modules: dict) -> None:
        """Wrap every public function of {short_name: module}."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        hooks = _hooks(modules)
        for short, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not isinstance(fn, types.FunctionType):
                    continue
                name = f"{short}.{attr}"
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, hooks.get(name)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals = []

    def _wrap(self, name, fn, hook):
        before, after = hook if hook else (None, None)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            entry = [span_id, 0.0]
            stack.append(entry)
            state = before(args, kwargs) if before else None
            info = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after:
                    info = after(state, result)
                return result
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append((span_id, parent[0] if parent else None, self.op_id,
                              name, start, end, entry[1], info))

        return wrapper

    def extend(self, spans) -> None:
        """Append spans recorded in another process, renumbering their ids."""
        base = self._next_id
        top = -1
        for span_id, parent, _, name, start, end, child_s, info in spans:
            self.spans.append((base + span_id, None if parent is None else base + parent,
                               self.op_id, name, start, end, child_s, info))
            top = max(top, span_id)
        self._next_id = base + top + 1


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, rounds: int, import_s=(), overhead_s: float = 0.0) -> dict:
    """Per-layer metrics from spans, per traced round.

    import_s holds the import time of each traced CLI process;
    overhead_s is the traced minus the untraced round wall time.
    """
    names = {s[0]: s[3] for s in spans}
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    trials = defaultdict(int)
    trial_self = defaultdict(float)
    routed = es = n_trials = builds = 0
    analytic_calls = 0
    analytic_busy = cli_self = 0.0
    commands = defaultdict(float)
    for _, parent, _, name, start, end, child_s, info in spans:
        dur = end - start
        own = dur - child_s
        key = name
        if name == "fock.swap_stage" and info:
            key = f"fock.swap_stage.n{info['n_max']}"
        calls[key] += 1
        busy[key] += dur
        self_s[key] += own
        layer = name.split(".", 1)[0]
        if layer == "analytic":
            analytic_calls += 1
            if parent is None or not names.get(parent, "").startswith("analytic."):
                analytic_busy += dur
        elif layer == "cli":
            cli_self += own
        if not info:
            continue
        if name == "protocol.run_batch":
            trials[info["m"]] += info["trials"]
            trial_self[info["m"]] += own
            n_trials += info["trials"]
            routed += info["routed"]
            es += info["es"]
        elif name == "protocol.conditional_tables":
            builds += info["builds"]
        elif name == "cli.main":
            commands[info["command"]] += dur

    r = float(rounds)
    runs = calls["fock.verification_joint"] + calls["fock.counting_joint"]
    values = {
        "protocol.run_batch.self_s": self_s["protocol.run_batch"] / r,
        "protocol.run_batch.m3.trials_per_self_s": _ratio(trials[3], trial_self[3]),
        "protocol.run_batch.m32.trials_per_self_s": _ratio(trials[32], trial_self[32]),
        "protocol.conditional_tables.calls": calls["protocol.conditional_tables"] / r,
        "protocol.conditional_tables.builds": builds / r,
        "protocol.conditional_tables.busy_s": busy["protocol.conditional_tables"] / r,
        "protocol.sweep.self_s": self_s["protocol.sweep"] / r,
        "protocol.routed_ratio": _ratio(routed, n_trials),
        "protocol.swap_click_ratio": _ratio(es, n_trials),
        "fock.swap_stage.n2.calls": calls["fock.swap_stage.n2"] / r,
        "fock.swap_stage.n2.busy_s": busy["fock.swap_stage.n2"] / r,
        "fock.swap_stage.n3.busy_s": busy["fock.swap_stage.n3"] / r,
        "fock.verification_joint.calls": calls["fock.verification_joint"] / r,
        "fock.verification_joint.busy_s": busy["fock.verification_joint"] / r,
        "fock.counting_joint.calls": calls["fock.counting_joint"] / r,
        "fock.counting_joint.busy_s": busy["fock.counting_joint"] / r,
        "fock.swap_pipeline.calls": calls["fock.swap_pipeline"] / r,
        "fock.swap_pipeline.self_s": self_s["fock.swap_pipeline"] / r,
        "fock.verification_runs_per_point": _ratio(runs, calls["fock.swap_pipeline"] + builds),
        "analytic.calls": analytic_calls / r,
        "analytic.busy_s": analytic_busy / r,
        "series.atomic_write_text.calls": calls["series.atomic_write_text"] / r,
        "series.atomic_write_text.busy_s": busy["series.atomic_write_text"] / r,
        "series.bytes_written": sum(s[7]["bytes"] for s in spans
                                    if s[3] == "series.atomic_write_text" and s[7]) / r,
        "cli.import_s": _ratio(sum(import_s), len(import_s)),
        "cli.self_s": cli_self / r,
        "tracing.overhead_s": overhead_s,
    }
    for command in CLI_COMMANDS:
        values[f"cli.{command}.s"] = commands[command] / r
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
