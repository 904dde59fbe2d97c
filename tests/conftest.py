"""Shared fixtures for the test suite."""

import os
import pathlib

import pytest

from dlcz_swap.params import experiment_defaults, with_overrides


@pytest.fixture(scope="session")
def defaults():
    return experiment_defaults()


@pytest.fixture(scope="session")
def boosted(defaults):
    # High pair rate / high detection so Monte Carlo conditionals get real
    # statistics in a few hundred thousand trials.  Not a physical operating
    # point, just a stress configuration.
    return with_overrides(defaults, chi=0.1, eta=0.8)


@pytest.fixture(scope="session")
def src_env():
    # the environment for a fresh interpreter: this checkout's src first on
    # PYTHONPATH
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
