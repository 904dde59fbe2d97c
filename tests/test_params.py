"""Parameter container: validation, config parsing, provenance tracking."""

import math
import pathlib

import pytest

from dlcz_swap.params import (
    ExperimentParams,
    ParamError,
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
    assert p.cutoff_us is None


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


def test_cutoff_must_exceed_t1():
    p = experiment_defaults()
    q = with_overrides(p, cutoff_us=1.0)  # t2=2 > cutoff is fine: the trial aborts
    assert q.cutoff_us == 1.0
    with pytest.raises(ParamError):
        with_overrides(p, cutoff_us=0.0)


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
    p = with_overrides(experiment_defaults(), chi=0.03, t2_us=12.0, cutoff_us=40.0)
    text = ("# key = value  (comments run to the end of a line)\n"
            "chi = 0.03  # override\neta = 0.5\ngamma0 = 0.68\ntau0_us = 320.0\n"
            "z_b = 0.001\nz_ac = 0.003\nxi_se = 0.3\nf_cav = 10.0\nm_modes = 3\n"
            "t1_us = 0.0\nt2_us = 12.0\ncutoff_us = 40.0\n")
    parsed = parse_config(text)
    assert parsed == p.as_dict()
    # and through a file
    path = tmp_path / "run.cfg"
    path.write_text(text)
    r = load_params(str(path))
    assert r.as_dict() == p.as_dict()
    assert r.provenance_dict()["chi"] == "file"


def test_demo_config_is_the_defaults():
    # the shipped config spells out the defaults and leaves the cutoff disabled
    text = DEMO_CONFIG.read_text()
    assert "cutoff_us" not in text
    assert parse_config(text).get("cutoff_us") is None
    assert load_params(str(DEMO_CONFIG)).as_dict() == experiment_defaults().as_dict()


def test_load_params_string_overrides():
    p = load_params(str(DEMO_CONFIG), {"chi": "0.05", "m_modes": "2", "cutoff_us": "none"})
    assert p.chi == 0.05
    assert p.m_modes == 2
    assert p.cutoff_us is None
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
