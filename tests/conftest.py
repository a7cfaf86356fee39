"""Shared test settings: hypothesis runs derandomized, without an example
database or deadline, so the suite is deterministic and writes no
.hypothesis/ directory."""

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    # hypothesis caches the constants it reads from source files while pytest
    # collects; keep that cache in pytest's own cache directory
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
