"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry, TINY_LLC
from repro.cache.llc import SlicedLLC
from repro.sim.config import TINY_PLATFORM
from repro.sim.platform import Platform


@pytest.fixture
def geometry() -> CacheGeometry:
    return TINY_LLC


@pytest.fixture
def llc(geometry, request) -> SlicedLLC:
    """A cache on the test class's ``backend`` (default: scalar)."""
    return SlicedLLC(geometry,
                     backend=getattr(request.cls, "backend", "scalar"))


@pytest.fixture
def platform() -> Platform:
    return Platform(TINY_PLATFORM)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
