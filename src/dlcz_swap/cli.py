"""Command-line interface: figure data, threshold reports, simulation runs,
and the cross-layer validation checks (CHECKS).

Every file this module writes embeds the parameter set, seed and version in
its metadata and contains nothing run-dependent, so commands re-run from a
file's own metadata reproduce it byte for byte.

Exit codes: 0 success, 1 command or validation failure, 2 usage error
(bad arguments, unknown parameters, unreadable config).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from importlib import resources

import numpy as np

from . import analytic, fock, protocol
from ._version import __version__
from .analytic import ClampedVisibilityWarning, CorrelationPair
from .params import ParamError, at_t2, experiment_defaults, load_params, with_overrides
from .series import CurveSeries, write_csv, write_json

__all__ = ["main", "build_parser", "FIGURE_IDS", "CHECKS", "cmd_figures",
           "cmd_threshold", "cmd_simulate", "cmd_sweep", "cmd_validate",
           "cmd_analytic"]

FIGURE_IDS = ("fig2", "fig3", "fig4", "fig1s", "fig2s")

# cross-correlation threshold the experiment reports, printed for comparison
REPORTED_THRESHOLD_G = 29.3

# frozen cross-checks for the validation checks; analytic entries were
# computed with an independent high-precision evaluation of the closed forms
GOLDEN_RESOURCE = "data/golden.json"


# ---------------------------------------------------------------- plumbing

def _parse_set(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ParamError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    return out


def _load_params(args):
    return load_params(getattr(args, "config", None),
                       _parse_set(getattr(args, "overrides", None)))


def _emit(out_dir: str, stem: str, curves, fmt: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for ext, write in (("csv", write_csv), ("json", write_json)):
        if fmt in (ext, "both"):
            path = os.path.join(out_dir, f"{stem}.{ext}")
            write(path, curves)
            print("wrote", path)


def _write_report(out_dir: str, name: str, payload: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    # imported at call time, so a wrapper installed on the series module
    # attribute sees every write
    from .series import atomic_write_text
    path = os.path.join(out_dir, name)
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print("wrote", path)


def _meta(params, **extra) -> dict:
    md = {"params": params.as_dict(), "provenance": params.provenance_dict(),
          "version": __version__}
    md.update(extra)
    return md


# ---------------------------------------------------------------- figures

def _fig1s(params, args):
    ts = np.arange(0.0, 400.0 + 1e-9, 4.0)
    rows = [(t, analytic.retrieval_efficiency(t, params), 0.0) for t in ts]
    return [CurveSeries("retrieval_efficiency", ("t_us", "gamma", "sigma"),
                        tuple(rows), _meta(params, source="analytic"))]


def _fig2s(params, args):
    ts = np.arange(0.0, 400.0 + 1e-9, 4.0)
    out = []
    for label, z in (("cross_correlation_swap_background", params.z_b),
                     ("cross_correlation_verify_background", params.z_ac)):
        rows = [(t, analytic.cross_correlation(t, z, params), 0.0) for t in ts]
        out.append(CurveSeries(label, ("t_us", "g", "sigma"), tuple(rows),
                               _meta(params, source="analytic", background=z)))
    return out


def _t2_curve(params, name: str, column: str, form: str, value):
    """Closed-form curve value(corr, form) over t2 at fixed readout spacing."""
    rows = []
    with warnings.catch_warnings():
        # the approx form clamping to zero at long storage is its documented
        # behavior, not something to warn about once per grid point
        warnings.simplefilter("ignore", ClampedVisibilityWarning)
        for t2 in np.arange(params.delta_t_us, 62.0 + 1e-9, 1.0):
            corr = analytic.correlation_pair(at_t2(params, t2))
            rows.append((t2, value(corr, form), 0.0))
    return CurveSeries(name, ("t2_us", column, "sigma"), tuple(rows),
                       _meta(params, source="analytic", form=form))


def _fig2(params, args):
    t2_mc = np.arange(params.delta_t_us, 62.0 + 1e-9, 6.0)
    mc = protocol.sweep(params, "t2", t2_mc, args.trials, seed=args.seed,
                        observable="visibility",
                        theta_grid=fock.default_theta_grid(args.theta_points),
                        name="visibility_mc")
    return [_t2_curve(params, f"visibility_{form}", "visibility", form,
                      analytic.visibility) for form in ("exact", "approx")] + [mc]


def _fig3(params, args):
    t2_mc = np.arange(params.delta_t_us, 62.0 + 1e-9, 6.0)
    mc = protocol.sweep(params, "t2", t2_mc, args.trials, seed=args.seed,
                        observable="concurrence",
                        theta_grid=fock.default_theta_grid(args.theta_points),
                        name="concurrence_mc")
    # the engine series reads the tables' own pipeline on the 16-point grid:
    # a hit on the sweep's build at the default --theta-points, and the same
    # values for any other
    eng_rows = []
    for t2 in t2_mc:
        tables = protocol.conditional_tables(at_t2(params, t2), fock.default_theta_grid())
        eng_rows.append((float(t2), tables.report.concurrence_estimator, 0.0))
    engine = CurveSeries("concurrence_engine", ("t2_us", "concurrence", "sigma"),
                         tuple(eng_rows), _meta(params, source="fock-engine"))
    return [_t2_curve(params, f"visibility_minus_sqrt_h_{form}", "margin", form,
                      analytic.margin) for form in ("approx", "exact")] + [engine, mc]


def _fig4(params, args):
    ms = [1, 2, 3]
    mc = protocol.sweep(params, "m", ms, args.trials, seed=args.seed,
                        theta_grid=[0.0], observable="fourfold",
                        name="fourfold_mc")
    tables = protocol.conditional_tables(params, (0.0,))
    pev1 = float(tables.fringe_cdf[0, 1])  # cumulative through (T,F)
    rows = []
    for m in ms:
        p_routed = analytic.swap_pair_probability(with_overrides(params, m_modes=m))
        rows.append((float(m), p_routed * tables.p_swap1 * pev1, 0.0))
    expected = CurveSeries("fourfold_expected", ("m", "rate", "sigma"),
                           tuple(rows), _meta(params, source="engine+analytic"))
    return [expected, mc]


_FIGURES = {"fig1s": _fig1s, "fig2s": _fig2s, "fig2": _fig2, "fig3": _fig3,
            "fig4": _fig4}


def cmd_figures(args) -> int:
    params = _load_params(args)
    curves = _FIGURES[args.figure_id](params, args)
    _emit(args.out, args.figure_id, curves, args.format)
    return 0


# ---------------------------------------------------------------- threshold

def cmd_threshold(args) -> int:
    if args.fixed_g_b is not None and not args.fixed_g_b > 1.0:
        raise ParamError(f"--fixed-g-b must exceed 1 (the classical floor), "
                         f"got {args.fixed_g_b}")
    g_approx = analytic.threshold_g(form="approx")
    g_exact = analytic.threshold_g(form="exact")
    rel = abs(g_approx - REPORTED_THRESHOLD_G) / REPORTED_THRESHOLD_G
    residual = analytic.margin(CorrelationPair(g_b=g_approx, g_ac=g_approx))

    print(f"threshold g* (approx visibility form): {g_approx!r}")
    print(f"threshold g* (exact visibility form):  {g_exact!r}")
    print(f"reported experimental threshold:       {REPORTED_THRESHOLD_G}")
    print(f"relative difference, approx vs reported: {100.0 * rel:.3f}%")
    print(f"sanity: concurrence margin at g* = {residual:.3e} (|.| <= 1e-9)")
    report = {"threshold_approx": g_approx, "threshold_exact_form": g_exact,
              "reported": REPORTED_THRESHOLD_G, "relative_difference": rel,
              "margin_at_threshold": residual, "version": __version__}

    if args.fixed_g_b is not None:
        try:
            g_ac = analytic.threshold_g(form="approx", fixed_g_b=args.fixed_g_b)
        except ValueError as err:  # no sign change: no g_ac reaches zero margin
            raise ParamError(f"--fixed-g-b {args.fixed_g_b}: {err}") from None
        print(f"asymmetric solve, g_b fixed at {args.fixed_g_b}: g_ac* = {g_ac!r}")
        report["fixed_g_b"] = args.fixed_g_b
        report["threshold_g_ac_asymmetric"] = g_ac

    if args.out is not None:
        _write_report(args.out, "threshold.json", report)
    return 0 if abs(residual) <= 1e-9 else 1


# ---------------------------------------------------------------- analytic

def cmd_analytic(args) -> int:
    """Point evaluation of every closed-form quantity at the given params."""
    params = _load_params(args)
    corr = analytic.correlation_pair(params)
    gamma1 = analytic.retrieval_efficiency(params.t1_us, params)
    gamma2 = analytic.retrieval_efficiency(params.t2_us, params)
    v_exact = analytic.visibility(corr, form="exact")
    v_approx = analytic.visibility(corr, form="approx", clamp=False)
    h = analytic.suppression(corr)
    out = {
        "gamma_t1": gamma1,
        "gamma_t2": gamma2,
        "g_b": corr.g_b,
        "g_ac": corr.g_ac,
        "visibility_exact": v_exact,
        "visibility_approx": v_approx,
        "suppression_h": h,
        "margin_approx": analytic.margin(corr),
        "coincidence_theta_0": analytic.coincidence_probability(0.0, params),
        "coincidence_theta_pi": analytic.coincidence_probability(math.pi, params),
        "herald_p1": analytic.single_mode_herald_probability(params),
        "eg_probability": analytic.multiplexed_eg_probability(params).exact,
        "swap_pair_probability": analytic.swap_pair_probability(params),
    }
    for key, value in out.items():
        print(f"{key} = {value!r}")
    if args.out is not None:
        _write_report(args.out, "analytic.json", {"values": out, "metadata": _meta(params)})
    return 0


# ---------------------------------------------------------------- simulate

def _stats_curves(stats, params) -> list:
    fringe_rows = []
    for j, theta in enumerate(stats.thetas):
        n = int(stats.n_by_theta[j])
        k = int(stats.fourfold_by_theta[j])
        rate = k / n if n else float("nan")
        sig = math.sqrt(rate * (1 - rate) / n) if n and 0 <= rate <= 1 else float("nan")
        fringe_rows.append((theta, rate, sig))
    meta = _meta(params, seed=stats.seed, n_trials=stats.n_trials,
                 source="monte-carlo")
    fringe = CurveSeries("fringe_fourfold", ("theta", "rate", "sigma"),
                         tuple(fringe_rows), meta)
    count_rows = []
    for j in range(4):
        k = int(stats.counting_counts[j])
        f = k / stats.n_es if stats.n_es else float("nan")
        sig = math.sqrt(f * (1 - f) / stats.n_es) if stats.n_es else float("nan")
        count_rows.append((float(j), f, sig))
    counting = CurveSeries("counting_joint", ("outcome_index", "frequency", "sigma"),
                           tuple(count_rows),
                           dict(meta, outcome_order=[list(p) for p in protocol.JOINT_ORDER]))
    return [fringe, counting]


def _fmt_pm(x, s) -> str:
    if math.isnan(x):
        return "n/a"
    return f"{x:.4f}+-{s:.4f}" if not math.isnan(s) else f"{x:.4f}"


def cmd_simulate(args) -> int:
    params = _load_params(args)
    grid = fock.default_theta_grid(args.theta_points)
    stats = protocol.run_batch(params, args.trials, theta_grid=grid,
                               seed=args.seed)
    payload = {
        "format": 1,
        "metadata": _meta(params, seed=args.seed, n_trials=args.trials,
                          theta_points=args.theta_points),
        "statistics": stats.as_dict(),
    }
    if args.format in ("json", "both"):
        _write_report(args.out, "simulate.json", payload)
    if args.format in ("csv", "both"):
        _emit(args.out, "simulate", _stats_curves(stats, params), "csv")
    print("summary: V=%s  h=%s  p_c=%s  C=%s  (n_es=%d%s)" % (
        _fmt_pm(stats.v, stats.v_se), _fmt_pm(stats.h, stats.h_se),
        _fmt_pm(stats.p_c, stats.p_c_se),
        _fmt_pm(stats.concurrence_raw, stats.concurrence_se),
        stats.n_es, ", insufficient statistics" if stats.insufficient else ""))
    return 0


def cmd_sweep(args) -> int:
    params = _load_params(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values or not all(map(math.isfinite, values)):
        raise ParamError(f"--values expects comma-separated finite numbers, "
                         f"got {args.values!r}")
    grid = fock.default_theta_grid(args.theta_points)
    curve = protocol.sweep(params, args.axis, values, args.trials,
                           theta_grid=grid, seed=args.seed,
                           observable=args.observable)
    _emit(args.out, "sweep", [curve], args.format)
    for x, y, s in curve.rows:
        print(f"{args.axis}={x!r}: {curve.columns[1]}={y!r} sigma={s!r}")
    return 0


# ---------------------------------------------------------------- validate
#
# CHECKS is the one list of cross-layer checks: `dlcz-swap validate` runs it
# and tests/test_acceptance.py parametrizes over it.  Each check takes no
# arguments and returns (ok, detail).  Layer functions are called through
# their modules, so a wrapper installed at the module attribute sees them.

def _golden_path() -> str:
    return str(resources.files("dlcz_swap").joinpath(GOLDEN_RESOURCE))


def _with_golden(body):
    """Check that runs body(path, golden); an unreadable golden file fails it."""
    @functools.wraps(body)
    def check():
        path = _golden_path()
        try:
            with open(path) as handle:
                golden = json.load(handle)
            if not isinstance(golden, dict) or not {"analytic", "engine", "mc"} <= golden.keys():
                raise ValueError("missing required sections")
        except (OSError, ValueError) as err:
            return False, f"{path}: unreadable ({err})"
        return body(path, golden)
    return check


@functools.lru_cache(maxsize=1)
def _default_report():
    """swap_pipeline at the defaults, shared by the engine checks."""
    return fock.swap_pipeline(experiment_defaults())


def _check_retrieval_endpoints():
    params = experiment_defaults()
    gamma0 = analytic.retrieval_efficiency(0.0, params)
    gamma320 = analytic.retrieval_efficiency(320.0, params)
    return (gamma0 == 0.68 and abs(gamma320 - 0.68 / math.e) < 1e-12,
            f"gamma(0)={gamma0} gamma(320)={gamma320:.6f}")


def _check_cross_correlation():
    params = experiment_defaults()
    gb = analytic.cross_correlation(0.0, params.z_b, params)
    gac = analytic.cross_correlation(0.0, params.z_ac, params)
    grid = np.linspace(0.0, 400.0, 100)
    mono = all(np.all(np.diff([analytic.cross_correlation(t, z, params)
                               for t in grid]) <= 1e-12)
               for z in (params.z_b, params.z_ac))
    return (abs(gb - 40.08045977011495) < 1e-9
            and abs(gac - 36.05154639175258) < 1e-9 and mono,
            f"g(0;zb)={gb:.8f} g(0;zac)={gac:.8f} "
            f"non-increasing on 100 points of [0,400]us: {mono}")


def _check_threshold():
    g_star = analytic.threshold_g(form="approx")
    g_star_exact = analytic.threshold_g(form="exact")
    rel = abs(g_star - REPORTED_THRESHOLD_G) / REPORTED_THRESHOLD_G
    return (abs(g_star - (16.0 + 8.0 * math.sqrt(3.0))) < 1e-9
            and abs(g_star_exact - 27.2422271434073) < 1e-6
            and rel < 0.025,
            f"approx={g_star:.6f} exact-form={g_star_exact:.6f} "
            f"vs reported {REPORTED_THRESHOLD_G} ({100 * rel:.2f}%)")


def _check_engine_vs_closed_form():
    # The closed-form coincidence sums its noise branches without the
    # photon-bunching terms the full state keeps, so the curves are compared
    # on the fringe scale: a pointwise-relative bound at the fringe null
    # would reject every faithful simulation.
    params = experiment_defaults()
    report = _default_report()
    closed = {t: analytic.coincidence_probability(t, params) for t in report.thetas}
    worst = max(abs(report.p_coinc[t] - closed[t]) for t in report.thetas)
    bound = 5.0 * params.chi * max(closed.values())
    return (worst <= bound,
            f"worst |diff|={worst:.3e} bound={bound:.3e} "
            f"(5*chi of fringe max, {len(report.thetas)}-point grid)")


def _check_engine_visibility():
    params = experiment_defaults()
    report = _default_report()
    v_exact = analytic.visibility(analytic.correlation_pair(params), form="exact")
    v_dev = abs(report.visibility_fringe - v_exact) / v_exact
    return (v_dev <= 5.0 * params.chi,
            f"engine={report.visibility_fringe:.6f} closed={v_exact:.6f} "
            f"rel={100 * v_dev:.2f}%")


def _check_two_photon_interference():
    # one photon in each input of the engine's 50/50 mixer, n_max = 2
    out = np.abs(fock._mixer(3)[:, 4]) ** 2  # photon-number weights of U|1,1>
    p11 = float(out[4])
    click = fock._click_effects(3, 1.0, 0.0)[True]  # perfect detector
    joint = float(np.kron(click, click) @ out)
    return (p11 <= 1e-12 and joint <= 1e-12,
            f"P(1,1 after 50/50)={p11:.2e} perfect-detector coincidence={joint:.2e}")


def _check_concurrence_consistency():
    report = _default_report()
    gap = abs(report.concurrence_wootters - report.concurrence_estimator)
    allowance = report.p_ij_spin["p11"] + abs(1.0 - report.block_total)
    # Noise-free limit: no multi-pair terms, no background, unit efficiencies,
    # negligible storage.  The swapped state is Bell-plus-vacuum and both
    # routes must land on p_c; 1e-8 covers sqrt(p00*p11), which turns ~1e-17
    # of float dust on an empty |11> diagonal into ~1e-9 in the estimator and
    # the closed-form concurrence alike.
    ideal = with_overrides(experiment_defaults(), chi=0.0, eta=1.0, gamma0=1.0,
                           tau0_us=1e9, z_b=0.0, z_ac=0.0, xi_se=0.0,
                           t2_us=1e-9)
    rep0 = fock.swap_pipeline(ideal, thetas=(0.0, math.pi / 2, math.pi))
    ideal_gap = max(abs(rep0.concurrence_wootters - rep0.p_c_spin),
                    abs(rep0.concurrence_estimator - rep0.p_c_spin))
    return (gap <= allowance and ideal_gap <= 1e-8,
            f"|C_w - C_est|={gap:.4f} <= p11+leak={allowance:.4f}; "
            f"noise-free |C - p_c|={ideal_gap:.2e} <= 1e-8")


def _check_clamp_regime():
    low = CorrelationPair(g_b=10.0, g_ac=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClampedVisibilityWarning)
        inputs = analytic.ConcurrenceInputs(
            p10=0.1, p01=0.1, p11=0.02, p00=0.78,
            v=analytic.visibility(low, form="approx", clamp=False),
            p_c=0.2, h=analytic.suppression(low))
        c_low = analytic.concurrence(inputs, form="approx")
        v5 = analytic.visibility(CorrelationPair(5.0, 5.0), form="approx")
    return (c_low == 0.0 and v5 == 0.0,
            f"C(g=10)={c_low} V_approx(g=5)={v5} (both clamp to 0)")


def _check_zero_crossing():
    # t2 sweep at fixed readout spacing; the margin's sign decides the
    # concurrence's for any positive normalization
    params = experiment_defaults()
    t2_star = analytic.zero_crossing_t2(params)
    corr = analytic.correlation_pair(at_t2(params, t2_star))
    mean_g = 0.5 * (corr.g_b + corr.g_ac)
    m32 = analytic.margin(analytic.correlation_pair(at_t2(params, 32.0)))
    return (29.0 <= mean_g <= 31.0 and m32 > 0.0,
            f"sign change at t2={t2_star:.2f}us, mean g={mean_g:.2f} "
            f"(want [29, 31]); margin(t2=32us)={m32:+.4f}")


@_with_golden
def _check_mc_vs_engine(path, golden):
    # the frozen batch must replay bit for bit, and agree with the engine
    gm = golden["mc"]
    boost = with_overrides(experiment_defaults(), **gm["overrides"])
    stats = protocol.run_batch(boost, gm["n_trials"], seed=gm["seed"])
    # each rate's denominator: routed trials for p_es, swap clicks for the rest
    counts = {"p_es": stats.n_routed, "p11": stats.n_es, "p00": stats.n_es}
    drift = [f"n_denominator.{key}: have {counts.get(key)!r} want {want!r}"
             for key, want in gm["n_denominator"].items()
             if counts.get(key) != want]
    drift += [f"{key}: have {getattr(stats, key)!r} want {want!r}"
              for key, want in gm["rates"].items()
              if abs(getattr(stats, key) - want) > 1e-12 * abs(want)]
    if drift:
        return False, f"{path}: seed {gm['seed']} batch moved: " + "; ".join(drift)
    tables = protocol.conditional_tables(boost, stats.thetas)
    pulls = [abs(stats.p_es - tables.p_swap1) / stats.p_es_se]
    probs = np.diff(np.concatenate([[0.0], tables.counting_cdf]))
    for j in range(4):
        f = stats.counting_counts[j] / stats.n_es
        se = math.sqrt(probs[j] * (1 - probs[j]) / stats.n_es)
        pulls.append(abs(f - probs[j]) / se)
    return (max(pulls) < 4.0,
            f"golden p_es/p11/p00 replayed to rel 1e-12; worst "
            f"conditional-probability pull={max(pulls):.2f}sigma (n_es={stats.n_es})")


@_with_golden
def _check_golden_file(path, golden):
    params = experiment_defaults()
    corr = analytic.correlation_pair(params)
    report = _default_report()
    current = {
        "analytic": {
            "gamma_320": analytic.retrieval_efficiency(320.0, params),
            "g_b_0": analytic.cross_correlation(0.0, params.z_b, params),
            "g_ac_0": analytic.cross_correlation(0.0, params.z_ac, params),
            "threshold_approx": analytic.threshold_g(form="approx"),
            "threshold_exact_form": analytic.threshold_g(form="exact"),
            "visibility_exact_defaults": analytic.visibility(corr, form="exact"),
            "suppression_defaults": analytic.suppression(corr),
            "coincidence_theta0_defaults": analytic.coincidence_probability(0.0, params),
        },
        "engine": {
            "p_es1": report.p_es1, "visibility_fringe": report.visibility_fringe,
            "concurrence_wootters": report.concurrence_wootters,
            "concurrence_estimator": report.concurrence_estimator,
        },
    }
    bad = []
    for section, have_all in current.items():
        for key, want in golden[section].items():
            have = have_all.get(key)
            if have is None or abs(have - want) > 1e-9 * max(1.0, abs(want)):
                bad.append(f"{section}.{key}: have {have!r} want {want!r}")
    if bad:
        return False, f"{path}: " + "; ".join(bad[:3])
    return True, f"{path}: all entries within tolerance"


CHECKS = (
    ("retrieval-endpoints", _check_retrieval_endpoints),
    ("cross-correlation-initials", _check_cross_correlation),
    ("threshold", _check_threshold),
    ("engine-vs-closed-form", _check_engine_vs_closed_form),
    ("engine-visibility", _check_engine_visibility),
    ("two-photon-interference", _check_two_photon_interference),
    ("concurrence-consistency", _check_concurrence_consistency),
    ("clamp-regime", _check_clamp_regime),
    ("zero-crossing", _check_zero_crossing),
    ("mc-vs-engine", _check_mc_vs_engine),
    ("golden-file", _check_golden_file),
)


def cmd_validate(args) -> int:
    rows = []
    for name, check in CHECKS:
        ok, detail = check()
        rows.append((name, bool(ok), detail))
    width = max(len(name) for name, _, _ in rows)
    for name, ok, detail in rows:
        print(f"[{'PASS' if ok else 'FAIL'}] {name.ljust(width)}  {detail}")
    passed = sum(ok for _, ok, _ in rows)
    print(f"{passed}/{len(rows)} checks passed")
    if args.out is not None:
        _write_report(args.out, "validate.json", {
            "version": __version__, "passed": passed == len(rows),
            "rows": [{"name": n, "ok": ok, "detail": d} for n, ok, d in rows]})
    return 0 if passed == len(rows) else 1


# ---------------------------------------------------------------- parser

def _add_common(sub, out_default="."):
    sub.add_argument("--config", help="parameter config file (key = value lines)")
    sub.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE",
                     help="override one parameter; repeatable")
    sub.add_argument("--out", default=out_default, help="output directory")
    sub.add_argument("--format", choices=("csv", "json", "both"), default="both")


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_mc(sub):
    sub.add_argument("--trials", type=int, default=1_000_000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--theta-points", type=_at_least_one, default=16)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlcz-swap",
        description="Link-level simulator and closed-form calculator for "
                    "multiplexed memory-assisted entanglement swapping.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figures", help="write figure datasets (analytic + MC)")
    p.add_argument("figure_id", choices=FIGURE_IDS)
    _add_common(p)
    _add_mc(p)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("threshold", help="concurrence-threshold report")
    p.add_argument("--fixed-g-b", type=float, default=None,
                   help="solve the verification-stage threshold with g_b held")
    p.add_argument("--out", default=None, help="also write threshold.json here")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("analytic", help="evaluate every closed form at one point")
    p.add_argument("--config")
    p.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", default=None, help="also write analytic.json here")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="run one Monte-Carlo batch")
    _add_common(p)
    _add_mc(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="Monte-Carlo sweep along one axis")
    p.add_argument("--axis", choices=protocol.SWEEP_AXES, required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--observable", choices=protocol.SWEEP_OBSERVABLES,
                   default="concurrence")
    _add_common(p)
    _add_mc(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="cross-layer agreement suite")
    p.add_argument("--out", default=None, help="also write validate.json here")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParamError as err:
        print(f"parameter error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
