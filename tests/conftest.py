"""Test-suite settings shared by every test module.

Property tests run derandomized with no deadline and no example database,
so a run is repeatable and a slow or loaded machine does not fail a test on
timing. Hypothesis keeps its other caches (source constants, read while
tests are collected) in a temporary directory removed at the end of the
run, so a test run writes no ``.hypothesis/`` directory.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("resectsim", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("resectsim")

_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = config.stash[_HOME] = tempfile.TemporaryDirectory(
        prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HOME].cleanup()
