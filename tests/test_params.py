"""Parameter container: validation, config parsing, provenance tracking."""

import math
import pathlib

import pytest

from dlcz_swap import cli
from dlcz_swap.params import (
    CONFIG_KEYS,
    ExperimentParams,
    ParamError,
    at_t2,
    experiment_defaults,
    load_params,
    parse_config,
    with_overrides,
)

DEMO_CONFIG = pathlib.Path(__file__).resolve().parent.parent / "demos" / "experiment.cfg"


def test_defaults_values():
    p = experiment_defaults()
    assert p.gamma0 == 0.68
    assert p.tau0_us == 320.0
    assert p.chi == 0.01
    assert p.eta == 0.5
    assert p.z_b == 1e-3
    assert p.z_ac == 3e-3
    assert p.xi_se == 0.3
    assert p.f_cav == 10.0
    assert p.m_modes == 3
    assert p.t1_us == 0.0
    assert p.t2_us == 2.0


def test_delta_t():
    p = experiment_defaults()
    assert p.delta_t_us == pytest.approx(2.0)
    q = with_overrides(p, t1_us=5.0, t2_us=9.0)
    assert q.delta_t_us == pytest.approx(4.0)


def test_defaults_provenance():
    p = experiment_defaults()
    prov = p.provenance_dict()
    assert prov["chi"] == "experiment-default"
    assert prov["gamma0"] == "experiment-default"
    # detection efficiency is not published, we assume a value
    assert prov["eta"] == "assumed"


def test_override_provenance():
    p = with_overrides(experiment_defaults(), chi=0.02)
    prov = p.provenance_dict()
    assert prov["chi"] == "override"
    assert prov["gamma0"] == "experiment-default"


def test_chi_range():
    p = experiment_defaults()
    with_overrides(p, chi=0.0)  # source off is legal
    with_overrides(p, chi=0.5)
    with pytest.raises(ParamError):
        with_overrides(p, chi=1.0)
    with pytest.raises(ParamError):
        with_overrides(p, chi=-0.01)


def test_time_ordering():
    p = experiment_defaults()
    with pytest.raises(ParamError):
        with_overrides(p, t2_us=0.0)  # t2 must exceed t1
    with pytest.raises(ParamError):
        with_overrides(p, t1_us=3.0)  # default t2=2 now violates ordering


def test_cutoff_us_is_an_unknown_key(tmp_path, capsys):
    # both links herald in the same trial, so no memory waits and a
    # storage-time cutoff has nothing to act on: a config line or override
    # that names one is an unknown key
    path = tmp_path / "old.cfg"
    path.write_text("chi = 0.01\ncutoff_us = 30.0\n")
    with pytest.raises(ParamError, match="unknown key 'cutoff_us'"):
        load_params(str(path))
    with pytest.raises(ParamError, match="unknown parameter 'cutoff_us'"):
        load_params(None, {"cutoff_us": "30"})  # the --set path
    with pytest.raises(ParamError, match="unknown parameter 'cutoff_us'"):
        with_overrides(experiment_defaults(), cutoff_us=30.0)
    for argv in (["--config", str(path)], ["--set", "cutoff_us=30"]):
        assert cli.main(["simulate", "--trials", "100", "--out", str(tmp_path), *argv]) == 2
        assert "unknown" in capsys.readouterr().err


def test_gamma0_range():
    p = experiment_defaults()
    with_overrides(p, gamma0=1.0)
    with pytest.raises(ParamError):
        with_overrides(p, gamma0=0.0)
    with pytest.raises(ParamError):
        with_overrides(p, gamma0=1.2)


def test_m_modes_validation():
    p = experiment_defaults()
    with_overrides(p, m_modes=1)
    with_overrides(p, m_modes=8)  # programmatic override may exceed the hardware count
    with pytest.raises(ParamError):
        with_overrides(p, m_modes=0)


def test_unknown_key_rejected():
    with pytest.raises(ParamError):
        with_overrides(experiment_defaults(), not_a_knob=1.0)


def test_config_round_trip(tmp_path):
    p = with_overrides(experiment_defaults(), chi=0.03, t2_us=12.0)
    text = ("# key = value  (comments run to the end of a line)\n"
            "chi = 0.03  # override\neta = 0.5\ngamma0 = 0.68\ntau0_us = 320.0\n"
            "z_b = 0.001\nz_ac = 0.003\nxi_se = 0.3\nf_cav = 10.0\nm_modes = 3\n"
            "t1_us = 0.0\nt2_us = 12.0\n")
    parsed = parse_config(text)
    assert parsed == p.as_dict()
    # and through a file
    path = tmp_path / "run.cfg"
    path.write_text(text)
    r = load_params(str(path))
    assert r.as_dict() == p.as_dict()
    assert r.provenance_dict()["chi"] == "file"


def test_demo_config_is_the_defaults():
    # the shipped config spells out the defaults
    text = DEMO_CONFIG.read_text()
    assert list(parse_config(text)) == list(CONFIG_KEYS)
    assert load_params(str(DEMO_CONFIG)).as_dict() == experiment_defaults().as_dict()


def test_load_params_string_overrides():
    p = load_params(str(DEMO_CONFIG), {"chi": "0.05", "m_modes": "2"})
    assert p.chi == 0.05
    assert p.m_modes == 2
    assert p.provenance_dict()["chi"] == "override"


def test_config_rejects_unknown_key():
    with pytest.raises(ParamError):
        parse_config("chi = 0.01\nbogus = 3\n")


def test_config_rejects_oversized_mode_count(tmp_path):
    # config files describe the experiment, which has 3 modes per interface;
    # larger counts need an explicit override
    path = tmp_path / "big.cfg"
    path.write_text("m_modes = 5\n")
    with pytest.raises(ParamError):
        load_params(str(path))
    p = load_params(None, {"m_modes": 5})
    assert p.m_modes == 5


def test_as_dict_no_provenance():
    d = experiment_defaults().as_dict()
    assert "provenance" not in d
    assert math.isclose(d["chi"], 0.01)


def test_frozen():
    p = experiment_defaults()
    with pytest.raises(Exception):
        p.chi = 0.5  # type: ignore[misc]


def test_direct_construction_validates():
    with pytest.raises(ParamError):
        ExperimentParams(eta=1.5)
    with pytest.raises(ParamError):
        ExperimentParams(tau0_us=0.0)


def test_at_t2_keeps_the_spacing_or_names_the_rounding():
    p = experiment_defaults()
    q = at_t2(p, 40.0)
    assert (q.t1_us, q.t2_us) == (38.0, 40.0)
    # once delta_t is at most half an ulp of t2, t2 - delta_t rounds to t2
    for t2 in (1e17, 1e300, math.inf):
        with pytest.raises(ParamError, match="delta_t_us=2.0.*spacing is lost"):
            at_t2(p, t2)
