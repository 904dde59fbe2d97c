"""Experiment parameters: defaults, validation, config-file parsing.

All physical inputs of the model live in one frozen dataclass so every layer
(closed forms, density-matrix engine, Monte Carlo) consumes the exact same
numbers.  Each field carries a provenance tag so reports can disclose which
values were measured, which came from a config file, and which are assumed.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "ExperimentParams",
    "ParamError",
    "at_t2",
    "experiment_defaults",
    "load_params",
    "with_overrides",
]


class ParamError(ValueError):
    """Raised on invalid parameter values or malformed config input."""


@dataclass(frozen=True)
class ExperimentParams:
    """Immutable bundle of all model inputs.

    Times are in microseconds.  ``z_b`` is the uncorrelated background of the
    readout channels feeding the swap measurement, ``z_ac`` the (larger)
    background of the verification channels.  ``xi_se * f_cav`` is the
    effective rate at which an unretrieved spin excitation leaks an incoherent
    photon into the readout mode.
    """

    chi: float = 0.01          # pair-generation probability per write pulse
    eta: float = 0.5           # detection efficiency (assumed, see provenance)
    gamma0: float = 0.68       # zero-delay retrieval efficiency
    tau0_us: float = 320.0     # memory 1/e lifetime
    z_b: float = 1e-3          # background rate, swap readout channels
    z_ac: float = 3e-3         # background rate, verification channels
    xi_se: float = 0.3         # spontaneous-emission branching fraction
    f_cav: float = 10.0        # cavity enhancement of the leaked photon
    m_modes: int = 3           # temporal/spatial modes per memory
    t1_us: float = 0.0         # swap readout delay
    t2_us: float = 2.0         # verification readout delay
    provenance: Mapping[str, str] = field(
        default_factory=lambda: dict(_DEFAULT_PROVENANCE),
        compare=False,
        repr=False,
    )

    def __post_init__(self):
        # chi=0 is legal (source off: no heralds, no clicks, trivially)
        _check(0.0 <= self.chi < 1.0, "chi", "0 <= chi < 1", self.chi)
        _check(0.0 < self.eta <= 1.0, "eta", "0 < eta <= 1", self.eta)
        _check(0.0 < self.gamma0 <= 1.0, "gamma0", "0 < gamma0 <= 1", self.gamma0)
        _check(self.tau0_us > 0.0, "tau0_us", "tau0_us > 0", self.tau0_us)
        _check(self.z_b >= 0.0, "z_b", "z_b >= 0", self.z_b)
        _check(self.z_ac >= 0.0, "z_ac", "z_ac >= 0", self.z_ac)
        _check(0.0 <= self.xi_se <= 1.0, "xi_se", "0 <= xi_se <= 1", self.xi_se)
        _check(self.f_cav >= 0.0, "f_cav", "f_cav >= 0", self.f_cav)
        _check(
            isinstance(self.m_modes, int) and self.m_modes >= 1,
            "m_modes", "integer m_modes >= 1", self.m_modes,
        )
        _check(self.t1_us >= 0.0, "t1_us", "t1_us >= 0", self.t1_us)
        _check(self.t2_us > self.t1_us, "t2_us", "t2_us > t1_us", self.t2_us)
        if self.z_b > self.z_ac:
            warnings.warn(
                "z_b > z_ac: swap channels noisier than verification channels",
                stacklevel=2,
            )

    @property
    def delta_t_us(self) -> float:
        return self.t2_us - self.t1_us

    def as_dict(self) -> dict:
        """Plain dict of the physical fields (no provenance)."""
        d = dataclasses.asdict(self)
        d.pop("provenance")
        return d

    def provenance_dict(self) -> dict:
        return dict(self.provenance)


# Config-file schema: flat "key = value" lines, one per physical field.
# Unknown keys are errors.
CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentParams)
                    if f.name != "provenance")

_DEFAULT_PROVENANCE = {k: "experiment-default" for k in CONFIG_KEYS}
# Detection efficiency is never quantified in the source data; 0.5 is assumed.
_DEFAULT_PROVENANCE["eta"] = "assumed"


def _check(cond: bool, name: str, rule: str, value) -> None:
    if not cond:
        raise ParamError(f"{name}={value!r} violates: {rule}")


def experiment_defaults() -> ExperimentParams:
    """Parameter set quoted by the source experiment (eta assumed)."""
    return ExperimentParams()


def with_overrides(params: ExperimentParams, **changes) -> ExperimentParams:
    """Return a copy with ``changes`` applied and tagged as overrides.

    m_modes > 3 is permitted here: an explicit override is the documented
    escape hatch above the experiment's mode count.
    """
    prov = dict(params.provenance)
    for k in changes:
        if k not in CONFIG_KEYS:
            raise ParamError(f"unknown parameter {k!r}")
        prov[k] = "override"
    return dataclasses.replace(params, provenance=prov, **changes)


def at_t2(params: ExperimentParams, t2_us: float) -> ExperimentParams:
    """The storage point t2 at the readout spacing of params: t1 = t2 - delta_t.
    A t2 so large that t2 - delta_t rounds to t2 is a ParamError."""
    t1_us = t2_us - params.delta_t_us
    if t1_us == t2_us:
        raise ParamError(f"t2_us={t2_us!r}: t1 = t2 - delta_t rounds to t2 at "
                         f"delta_t_us={params.delta_t_us!r}, so the spacing is lost")
    return with_overrides(params, t1_us=t1_us, t2_us=t2_us)


def _parse_value(key: str, raw: str, lineno: int):
    raw = raw.strip()
    if key == "m_modes":
        try:
            return int(raw)
        except ValueError:
            raise ParamError(
                f"line {lineno}: m_modes must be an integer, got {raw!r}"
            ) from None
    try:
        value = float(raw)
    except ValueError:
        raise ParamError(f"line {lineno}: cannot parse {key} value {raw!r}") from None
    if not math.isfinite(value) and not (key == "tau0_us" and value == math.inf):
        raise ParamError(f"line {lineno}: {key} must be finite")
    return value


def parse_config(text: str) -> dict:
    """Parse flat ``key = value`` lines with ``#`` comments into a dict."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParamError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ParamError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ParamError(f"line {lineno}: duplicate key {key!r}")
        out[key] = _parse_value(key, raw, lineno)
    return out


def load_params(path=None, overrides: Mapping[str, object] | None = None) -> ExperimentParams:
    """Build params from defaults, an optional config file, then overrides.

    Provenance is tracked per field: experiment-default (eta: assumed), file,
    or override.  m_modes above 3 is rejected unless it arrives through
    ``overrides``.
    """
    values = experiment_defaults().as_dict()
    prov = dict(_DEFAULT_PROVENANCE)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            file_values = parse_config(fh.read())
        for k, v in file_values.items():
            values[k] = v
            prov[k] = "file"
        if file_values.get("m_modes", 1) > 3:
            raise ParamError(
                "m_modes > 3 requires an explicit override (--set m_modes=...)"
            )
    if overrides:
        for k, v in overrides.items():
            if k not in CONFIG_KEYS:
                raise ParamError(f"unknown parameter {k!r}")
            values[k] = _parse_value(k, str(v), 0) if isinstance(v, str) else v
            prov[k] = "override"
    return ExperimentParams(provenance=prov, **values)

