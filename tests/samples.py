"""Seeded test inputs shared by several test modules."""

import math

import numpy as np

from tailkit.rng import make_rng


def spliced(n, seed):
    """Lognormal body below 5 under a Pareto tail (alpha 2.5) holding half the mass."""
    rng = make_rng(seed)
    body = rng.lognormal(math.log(2.0), 0.6, 4 * n)
    body = body[body < 5.0][: n - n // 2]
    return np.concatenate([body, 5.0 * (1.0 - rng.random(n // 2)) ** (-1 / 1.5)])
