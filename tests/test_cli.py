"""Command-line interface: files, exit codes, determinism."""

import json
import math
import pathlib
import subprocess
import sys

import pytest

from dlcz_swap import cli, fock, protocol
from dlcz_swap.params import experiment_defaults, with_overrides
from dlcz_swap.series import read_csv, read_json

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_missing_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_analytic_point(tmp_path, capsys):
    assert cli.main(["analytic", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "analytic.json").read_text())
    vals = payload["values"]
    assert vals["g_b"] == pytest.approx(40.08045977011495, rel=1e-12)
    assert vals["gamma_t1"] == pytest.approx(0.68)
    assert vals["herald_p1"] == pytest.approx(0.005)
    assert payload["metadata"]["provenance"]["eta"] == "assumed"
    out = capsys.readouterr().out
    assert "visibility_exact" in out


def test_analytic_set_override(tmp_path):
    assert cli.main(["analytic", "--set", "chi=0.02", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "analytic.json").read_text())
    assert payload["metadata"]["params"]["chi"] == 0.02
    assert payload["metadata"]["provenance"]["chi"] == "override"
    # doubled pair rate halves the correlation roughly
    assert payload["values"]["g_b"] < 30.0


def test_config_file_flow(tmp_path):
    cfg = tmp_path / "run.cfg"
    text = (ROOT / "demos" / "experiment.cfg").read_text()
    assert "\nchi = 0.01 " in text
    cfg.write_text(text.replace("\nchi = 0.01 ", "\nchi = 0.05 "))
    assert cli.main(["analytic", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "analytic.json").read_text())
    assert payload["metadata"]["params"]["chi"] == 0.05
    assert payload["metadata"]["provenance"]["chi"] == "file"


def test_bad_override_key_exits_2(tmp_path):
    assert cli.main(["analytic", "--set", "bogus=1", "--out", str(tmp_path)]) == 2


def test_malformed_override_exits_2(tmp_path):
    assert cli.main(["analytic", "--set", "chi", "--out", str(tmp_path)]) == 2


def test_missing_config_file_exits_1(tmp_path):
    assert cli.main(["analytic", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_threshold_report(tmp_path, capsys):
    assert cli.main(["threshold", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "threshold.json").read_text())
    assert report["threshold_approx"] == pytest.approx(16 + 8 * math.sqrt(3), abs=1e-6)
    assert report["threshold_exact_form"] == pytest.approx(27.242227143, abs=1e-6)
    assert report["reported"] == 30.0  # the abstract's "cross-correlation >= 30"
    assert report["relative_difference"] < 0.025
    assert abs(report["margin_at_threshold"]) <= 1e-9
    out = capsys.readouterr().out
    assert "reported experimental threshold" in out


def test_threshold_asymmetric(tmp_path):
    assert cli.main(["threshold", "--fixed-g-b", "40.0", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "threshold.json").read_text())
    # a strong swap stage lets a weaker verification stage reach zero margin
    assert report["threshold_g_ac_asymmetric"] < report["threshold_approx"]


@pytest.mark.parametrize("g_b", ["-5", "0", "1", "nan", "4"])
def test_threshold_bad_fixed_g_b_exits_2(tmp_path, g_b, capsys):
    # g_b <= 1 is below the classical floor; g_b = 4 leaves no g_ac root
    assert cli.main(["threshold", f"--fixed-g-b={g_b}", "--out", str(tmp_path)]) == 2
    assert "--fixed-g-b" in capsys.readouterr().err
    assert not (tmp_path / "threshold.json").exists()


def test_figures_write_parseable_files(tmp_path):
    fast = ["--trials", "4000", "--theta-points", "4"]
    for fig in cli.FIGURE_IDS:
        out = tmp_path / fig
        assert cli.main(["figures", fig, "--out", str(out)] + fast) == 0
        curves_csv = read_csv(str(out / f"{fig}.csv"))
        curves_json = read_json(str(out / f"{fig}.json"))
        assert [c.name for c in curves_csv] == [c.name for c in curves_json]
        assert all(len(c.rows) >= 1 for c in curves_csv)


def test_fig1s_endpoints(tmp_path):
    assert cli.main(["figures", "fig1s", "--out", str(tmp_path),
                     "--format", "json"]) == 0
    (curve,) = read_json(str(tmp_path / "fig1s.json"))
    assert curve.name == "retrieval_efficiency"
    assert curve.rows[0][0] == 0.0
    assert curve.rows[0][1] == pytest.approx(0.68)
    assert curve.rows[80][0] == 320.0
    assert curve.rows[80][1] == pytest.approx(0.68 / math.e, rel=1e-12)


def test_fig3_engine_series_matches_pipeline(tmp_path):
    assert cli.main(["figures", "fig3", "--out", str(tmp_path), "--format", "json",
                     "--trials", "4000", "--theta-points", "4"]) == 0
    curves = {c.name: c for c in read_json(str(tmp_path / "fig3.json"))}
    rows = curves["concurrence_engine"].rows
    ys = [y for _, y, _ in rows]
    assert max(ys) > 0.0 and max(ys) != min(ys)
    defaults = experiment_defaults()
    for t2, y, _ in rows:
        point = with_overrides(defaults, t1_us=t2 - defaults.delta_t_us, t2_us=t2)
        assert y == pytest.approx(fock.swap_pipeline(point).concurrence_estimator,
                                  rel=1e-9, abs=1e-12)
    assert rows[0][0] == 2.0
    assert rows[0][1] == pytest.approx(0.32151, abs=1e-5)


def test_fig3_runs_one_swap_stage_per_point(tmp_path, monkeypatch):
    # the engine series reads the build the MC sweep made at each of the
    # 11 t2 points, so each point runs one swap stage
    calls = []
    swap_stage = fock.swap_stage
    monkeypatch.setattr(fock, "swap_stage",
                        lambda *args, **kw: calls.append(1) or swap_stage(*args, **kw))
    protocol._tables_cached.cache_clear()
    assert cli.main(["figures", "fig3", "--out", str(tmp_path), "--format", "json",
                     "--trials", "4000"]) == 0
    assert len(calls) == 11


@pytest.mark.parametrize("fig", ["fig3", "fig4"])
def test_figures_at_chi_zero(tmp_path, fig):
    # chi = 0 is the noise-free limit of the heralded link: the engine
    # series is defined, and nothing heralds, so no fourfold is expected
    assert cli.main(["figures", fig, "--out", str(tmp_path), "--format", "json",
                     "--trials", "2000", "--set", "chi=0"]) == 0
    curves = {c.name: c for c in read_json(str(tmp_path / f"{fig}.json"))}
    if fig == "fig3":
        assert all(math.isfinite(y) for _, y, _ in curves["concurrence_engine"].rows)
    else:
        assert all(y == 0.0 for _, y, _ in curves["fourfold_expected"].rows)


def test_fig4_multiplexing_linear(tmp_path):
    # Boosted rates so 150k trials actually accumulates fourfold events;
    # at the experiment defaults the fourfold probability is ~8e-7.
    assert cli.main(["figures", "fig4", "--out", str(tmp_path), "--format",
                     "json", "--trials", "150000",
                     "--set", "chi=0.1", "--set", "eta=0.8"]) == 0
    curves = {c.name: c for c in read_json(str(tmp_path / "fig4.json"))}
    expected = curves["fourfold_expected"]
    mc = curves["fourfold_mc"]
    assert [r[0] for r in expected.rows] == [1.0, 2.0, 3.0]
    for (m, y_exp, _), (_, y_mc, sig) in zip(expected.rows, mc.rows):
        assert abs(y_mc - y_exp) < 4.5 * max(sig, 1e-9)


RERUN_COMMANDS = {"simulate": ["simulate"], "fig3": ["figures", "fig3"],
                  "fig4": ["figures", "fig4"]}


@pytest.mark.parametrize("command", RERUN_COMMANDS.values(), ids=RERUN_COMMANDS.keys())
def test_simulate_rerun_byte_identical(tmp_path, src_env, command):
    # the rerun is a fresh interpreter, so its caches start cold while this
    # process's are warm from the tests before: the files must not tell
    argv = list(command) + ["--trials", "20000", "--seed", "5"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(argv + ["--out", str(d1)]) == 0
    proc = subprocess.run([sys.executable, "-m", "dlcz_swap.cli", *argv, "--out", str(d2)],
                          env=src_env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = sorted(path.name for path in d1.iterdir())
    assert names and names == sorted(path.name for path in d2.iterdir())
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_simulate_output_shape(tmp_path, capsys):
    assert cli.main(["simulate", "--trials", "30000", "--seed", "3",
                     "--out", str(tmp_path), "--set", "chi=0.1",
                     "--set", "eta=0.8"]) == 0
    payload = json.loads((tmp_path / "simulate.json").read_text())
    assert payload["format"] == 1
    md = payload["metadata"]
    assert md["seed"] == 3 and md["n_trials"] == 30000
    assert "workers" not in md
    st = payload["statistics"]
    assert st["n_trials"] == 30000
    assert st["n_es"] > 0
    curves = {c.name: c for c in read_csv(str(tmp_path / "simulate.csv"))}
    assert set(curves) == {"fringe_fourfold", "counting_joint"}
    assert len(curves["counting_joint"].rows) == 4
    assert "summary: V=" in capsys.readouterr().out


def test_sweep_command(tmp_path, capsys):
    assert cli.main(["sweep", "--axis", "t2", "--values", "2,8,14",
                     "--observable", "es_rate", "--trials", "5000",
                     "--set", "chi=0.1", "--set", "eta=0.8",
                     "--out", str(tmp_path)]) == 0
    (curve,) = read_json(str(tmp_path / "sweep.json"))
    assert [r[0] for r in curve.rows] == [2.0, 8.0, 14.0]
    assert curve.metadata["observable"] == "es_rate"
    assert "t2=2.0" in capsys.readouterr().out


def test_sweep_theta_other_observable_exit_2(tmp_path, capsys):
    # a theta sweep reports the fourfold rate and nothing else: asking it
    # for another observable is a usage error, not a fourfold curve
    assert cli.main(["sweep", "--axis", "theta", "--values", "0,1",
                     "--observable", "concurrence", "--trials", "1000",
                     "--out", str(tmp_path)]) == 2
    assert "fourfold" in capsys.readouterr().err
    assert not (tmp_path / "sweep.json").exists()


def test_sweep_unsorted_values_exit_2(tmp_path):
    assert cli.main(["sweep", "--axis", "t2", "--values", "8,2",
                     "--trials", "1000", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("values", ["2,abc", ",", "2,nan"])
def test_sweep_bad_values_exit_2(tmp_path, values):
    assert cli.main(["sweep", "--axis", "t2", "--values", values,
                     "--trials", "1000", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "sweep.json").exists()


@pytest.mark.parametrize("t2", ["1e17", "1e300"])
def test_sweep_t2_beyond_the_spacing_exit_2(tmp_path, capsys, t2):
    # t1 = t2 - delta_t rounds to t2: the error names delta_t and the
    # rounding, not the t2 > t1 rule the rounded point would break
    assert cli.main(["sweep", "--axis", "t2", "--values", t2,
                     "--trials", "1000", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "delta_t_us=2.0" in err and "rounds to t2" in err and "t2_us > t1_us" not in err
    assert not (tmp_path / "sweep.json").exists()


def test_sweep_bad_axis_argparse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--axis", "zeta", "--values", "1",
                  "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["figures", "fig2"], ["figures", "fig3"], ["figures", "fig4"], ["figures", "fig1s"],
    ["figures", "fig2s"], ["simulate"], ["sweep", "--axis", "t2", "--values", "2,3"],
])
@pytest.mark.parametrize("points", ["0", "-3"])
def test_theta_points_below_one_exit_2(tmp_path, command, points):
    # rejected at parse time by every command that takes the option, before
    # any file is written
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--theta-points", points, "--trials", "1000",
                            "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_validate_passes(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert "checks passed" in out


def test_validate_catches_corrupted_golden(tmp_path, monkeypatch, capsys):
    golden = json.loads(open(cli._golden_path()).read())
    golden["analytic"]["g_b_0"] *= 1.01
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    monkeypatch.setattr(cli, "_golden_path", lambda: str(bad))
    assert cli.main(["validate"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert str(bad) in out


def test_validate_pins_mc_golden_batch(tmp_path, monkeypatch, capsys):
    # the frozen batch replays bit for bit, so a 1e-9 relative shift fails
    golden = json.loads(open(cli._golden_path()).read())
    golden["mc"]["rates"]["p_es"] *= 1.0 + 1e-9
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    monkeypatch.setattr(cli, "_golden_path", lambda: str(bad))
    assert cli.main(["validate"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("[FAIL]")]
    assert len(fails) == 1 and "mc-vs-engine" in fails[0] and str(bad) in fails[0]


def test_validate_pins_mc_golden_counts(tmp_path, monkeypatch, capsys):
    # the frozen batch's routed and swap-click counts must replay exactly
    golden = json.loads(open(cli._golden_path()).read())
    golden["mc"]["n_denominator"]["p_es"] += 1
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    monkeypatch.setattr(cli, "_golden_path", lambda: str(bad))
    assert cli.main(["validate"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("[FAIL]")]
    assert len(fails) == 1 and "mc-vs-engine" in fails[0] and str(bad) in fails[0]
    assert "n_denominator.p_es" in fails[0]


def test_cli_import_skips_scipy_optimize(tmp_path, src_env):
    # the package needs numpy only: no scipy module is loaded by the import,
    # nor by the engine, the Monte Carlo and the checks a command runs
    code = (
        "import sys, dlcz_swap.cli as cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(scipy_modules())\n"
        "assert cli.main(['figures', 'fig3', '--trials', '2000', '--out', sys.argv[1]]) == 0\n"
        "assert cli.main(['validate']) == 0\n"
        "print(scipy_modules())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=src_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stdout.splitlines()[-1] == "[]"


def test_simulate_skips_numpy_ma(tmp_path, src_env):
    # np.unique imports numpy.ma on numpy 2 (about 13 ms of start-up); the
    # fringe fit tests its cosines with min < max instead.  numpy 1 imports
    # numpy.ma with numpy itself, so there is nothing to keep out.
    code = ("import sys, dlcz_swap.cli as cli\n"
            "if 'numpy.ma' in sys.modules:\n"
            "    sys.exit(3)\n"
            "assert cli.main(['simulate', '--trials', '20000', '--out', sys.argv[1]]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma loaded'\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=src_env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode == 3:
        pytest.skip("import numpy already loads numpy.ma (numpy < 2)")
    assert proc.returncode == 0, proc.stderr


# Boundary points of ExperimentParams, one override set each: every command
# must run (exit 0) or reject the point (exit 2), never crash.  tau0_us = 1
# at t1 = 60 us leaves gamma(t) below 2**-53 of the noise floor, so g is
# exactly 1, the uncorrelated limit.
BOUNDARY_POINTS = {
    "chi0": ["chi=0"], "chi0.99": ["chi=0.99"],
    "eta1e-9": ["eta=1e-9"], "eta1": ["eta=1"], "gamma0_1e-9": ["gamma0=1e-9"],
    "tau0_1": ["tau0_us=1"], "tau0_1_t2_62": ["tau0_us=1", "t1_us=60", "t2_us=62"],
    "t2_1000": ["t2_us=1000"], "m1": ["m_modes=1"], "m40": ["m_modes=40"],
    "no_background": ["z_b=0", "z_ac=0", "xi_se=0"],
    "eta1e-200": ["eta=1e-200"], "chi1e-300": ["chi=1e-300"], "dt70": ["t2_us=70"],
}
BOUNDARY_COMMANDS = {
    "analytic": ["analytic"], "simulate": ["simulate"], "fig2": ["figures", "fig2"],
    "fig3": ["figures", "fig3"], "fig4": ["figures", "fig4"],
}


@pytest.mark.parametrize("command", BOUNDARY_COMMANDS.values(), ids=BOUNDARY_COMMANDS.keys())
@pytest.mark.parametrize("point", BOUNDARY_POINTS.values(), ids=BOUNDARY_POINTS.keys())
def test_boundary_points_never_crash(tmp_path, capsys, command, point):
    argv = list(command) + ["--out", str(tmp_path)]
    if command != ["analytic"]:
        argv += ["--trials", "2000"]
    for override in point:
        argv += ["--set", override]
    code = cli.main(argv)
    assert code in (0, 2)
    if code == 2:
        assert "parameter error" in capsys.readouterr().err


@pytest.mark.parametrize("figure", ["fig2", "fig3"])
def test_empty_figure_axis_exits_2(tmp_path, capsys, figure):
    # delta_t = 70 us lies beyond the figures' 62 us axis end: no series
    # may be written with no rows
    code = cli.main(["figures", figure, "--trials", "2000", "--out", str(tmp_path),
                     "--set", "t2_us=70"])
    assert code == 2
    assert "delta_t=70.0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("chi", ["0", "0.01"])
def test_herald_below_rounding_exits_2(tmp_path, capsys, chi):
    # at eta < 2**-54, 1 - (1 - eta)**n rounds to 0: the herald has no
    # probability left, whatever chi is
    code = cli.main(["simulate", "--trials", "2000", "--out", str(tmp_path),
                     "--set", f"chi={chi}", "--set", "eta=1e-200"])
    assert code == 2
    err = capsys.readouterr().err
    assert "parameter error" in err and "eta=1e-200" in err and f"chi={float(chi)!r}" in err


def test_validate_writes_report(tmp_path):
    assert cli.main(["validate", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "validate.json").read_text())
    assert payload["passed"] is True
    assert all(row["ok"] for row in payload["rows"])
