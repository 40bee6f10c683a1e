"""Shared fixtures for the test suite.

The fixtures deliberately use *tiny* external-memory configurations (blocks of
a few hundred bytes, buffers of a few KB) so that external behaviour --
multi-block files, buffer evictions, multi-level recursions, multi-run
external sorts -- is exercised with datasets of only a few hundred objects.
"""

from __future__ import annotations

import random
from typing import Callable, List

import pytest

from repro.em import EMConfig, EMContext
from repro.geometry import WeightedPoint


@pytest.fixture
def tiny_config() -> EMConfig:
    """A very small EM configuration: 512-byte blocks, 8-block buffer."""
    return EMConfig(block_size=512, buffer_size=8 * 512)


@pytest.fixture
def tiny_ctx(tiny_config: EMConfig) -> EMContext:
    """A fresh external-memory context with the tiny configuration."""
    return EMContext(tiny_config)


@pytest.fixture
def small_ctx() -> EMContext:
    """A slightly larger context (4 KB blocks, 64 KB buffer)."""
    return EMContext(EMConfig(block_size=4096, buffer_size=64 * 1024))


@pytest.fixture
def make_objects() -> Callable[..., List[WeightedPoint]]:
    """Factory for reproducible random weighted point sets."""

    def factory(count: int, *, seed: int = 0, extent: float = 100.0,
                weighted: bool = True) -> List[WeightedPoint]:
        rng = random.Random(seed)
        objects = []
        for _ in range(count):
            weight = rng.choice([1.0, 2.0, 3.0]) if weighted else 1.0
            objects.append(WeightedPoint(rng.uniform(0.0, extent),
                                         rng.uniform(0.0, extent), weight))
        return objects

    return factory
