"""Seeded random number generation.

All stochastic operations in the library take an explicit integer seed and
build their generator here. Philox is counter-based, so replicate streams
derived from (seed, index) are independent and reproducible regardless of
execution order or thread count.
"""

import numpy as np

from .errors import DomainError


def check_seed(*values: int) -> None:
    """Raise DomainError, naming the value, for a negative seed or stream index."""
    if any(v < 0 for v in values):
        raise DomainError(f"seeds and stream indices must be >= 0, got {min(values)}")


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for `seed`, optionally on a derived sub-stream.

    `make_rng(seed, i)` yields an independent stream per index `i`, used for
    bootstrap replicates and simulation sweeps.
    """
    check_seed(seed, *stream)
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))
