"""Stochastic models of algorithmic attention growth.

Two generators close the loop between an exploration/exploitation mixture
and the tail exponent of the resulting attention distribution:

* the copy model, `simulate_copy(n_nodes, gamma, seed)`: creators arrive
  one per step, each holding one unit of attention, and a single attention
  event is allocated per step, uniformly at random with probability gamma,
  else proportionally to attention already granted by events (a flat urn
  of past events: copying an event means copying its target). The
  per-creator counts (arrival unit plus events received) develop a
  power-law tail with density exponent 1 + 1/(1 - gamma).

* the preferential-attachment graph, `simulate_ba(n_nodes, m, seed)`: each
  new node wires m edges to distinct existing nodes chosen proportionally
  to degree (urn of edge endpoints, duplicate targets rejected). Its degree
  tail has CCDF exponent 2, i.e. density exponent 3, independent of m.

Both are simulated without a per-event loop. A draw from an urn either
lands on a value known in advance or on an earlier draw, so the draws form
a forest whose roots carry the values; pointer jumping (`_roots`) resolves
every draw in O(log depth) vectorized rounds. The random stream and the
counts are those of the sequential process, bit for bit; preferential
attachment redraws, one at a time, only the nodes whose targets repeat.

Pure exploitation (gamma = 0) cannot bootstrap newcomers in a finite run:
every unit would return to the seed forever. EXPLORATION_FLOOR = 0.05, the
least gamma the copy model runs at, realizes the gamma -> 0 limit while
keeping the predicted exponent, 1 + 1/0.95 = 2.053, within 3% of 2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fit import TailFit, select_xmin
from .report import csv_table
from .rng import make_rng
from .sample import DISCRETE, empirical_ccdf, make_sample

__all__ = [
    "DegreeSequence",
    "theoretical_alpha",
    "simulate_copy",
    "simulate_ba",
    "measure_exponent",
    "gamma_sweep",
    "ccdf_slope",
    "degrees_csv",
    "sweep_csv",
]

COPY = "copy"
BA = "ba"

EXPLORATION_FLOOR = 0.05

# simulate_ba resolves min(_BA_BLOCK_MAX, max(_BA_BLOCK_MIN, v // _BA_BLOCK_DIV))
# nodes per block at node v: past the minimum, a draw lands on a target of
# its own block with probability below 1/_BA_BLOCK_DIV, which keeps the
# pointer chains short and the work lost to a rejection small.
_BA_BLOCK_MIN = 256
_BA_BLOCK_MAX = 8192
_BA_BLOCK_DIV = 8
# values per block: simulate_copy draws its uniforms and degrees_csv encodes
# its digits a block at a time, so no n-sized temporary is made
_BLOCK = 65536
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)  # 10 .. 10^18: a count has 1 + #{p <= count} digits


@dataclass(frozen=True)
class DegreeSequence:
    """Per-node attention (copy) or degree (ba) counts for one run.

    Counts are events or degrees, so they must be >= 0; construction raises
    DomainError otherwise.
    """

    counts: np.ndarray
    steps: int  # attention events (copy) or total edges (ba)

    def __post_init__(self):
        c = np.array(self.counts, dtype=np.int64)  # own copy, then freeze
        if c.size and c.min() < 0:
            raise DomainError(f"counts must be >= 0: {np.count_nonzero(c < 0)} "
                              f"negative, least {int(c.min())}")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)


def theoretical_alpha(gamma: float) -> float:
    """Predicted density exponent 1 + 1/(1 - gamma).

    At gamma = 1 attention is allocated uniformly and no power law forms;
    the prediction degenerates, reported as inf.
    """
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma must lie in [0, 1], got {gamma}")
    if gamma == 1.0:
        return math.inf
    return 1.0 + 1.0 / (1.0 - gamma)


def _roots(ptr: np.ndarray) -> np.ndarray:
    """Pointer jumping: follow `ptr` (each entry <= its index) to fixed points.

    Halves every chain per round, so a forest of depth D needs about log2(D)
    rounds; only two buffers are swapped.
    """
    nxt = np.empty_like(ptr)
    while True:
        np.take(ptr, ptr, out=nxt, mode="clip")  # "raise" would buffer out
        if np.array_equal(nxt, ptr):
            return ptr
        ptr, nxt = nxt, ptr


def simulate_copy(n_nodes: int, gamma: float = 0.0, seed: int = 0) -> DegreeSequence:
    """Run the copy model on n_nodes >= 1000 creators with exploration
    probability gamma in [0, 1]; deterministic for a fixed seed.

    Sequential growth: at step t creator t arrives holding one unit of
    attention, then one attention event is allocated, uniformly over the
    t+1 existing creators with probability max(gamma, EXPLORATION_FLOOR)
    (see module docstring), otherwise to the owner of a uniformly drawn
    past event.
    counts therefore sums to n_nodes (arrival units) + steps exactly.

    The past event drawn at step t >= 2 is step int(u * (t - 1)) + 1, whose
    target is either its own exploration pick or, again, a copy. Every step
    therefore points to an earlier one or explores (steps 0 and 1 always
    do: the urn is empty at step 1), and pointer jumping to the exploring
    ancestor resolves all targets at once from the same draws.
    """
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma must lie in [0, 1], got {gamma}")
    if n_nodes < 1000:
        raise DomainError("copy model needs n_nodes >= 1000")
    n = n_nodes
    g = max(gamma, EXPLORATION_FLOOR)
    rng = make_rng(seed)
    # Both uniform streams are drawn a block at a time (Philox gives the
    # same doubles in any chunking); only the exploration mask of the first
    # and the int32 pointers and destinations of the second are n-sized.
    blocks = [slice(a, min(a + _BLOCK, n)) for a in range(0, n, _BLOCK)]
    explore = np.empty(n, dtype=bool)
    for b in blocks:
        np.less(rng.random(b.stop - b.start), g, out=explore[b])
    explore[:2] = True
    index = np.int32 if n < 2**31 else np.int64
    ptr, dest = np.empty(n, dtype=index), np.empty(n, dtype=index)
    for b in blocks:
        u = rng.random(b.stop - b.start)
        steps = np.arange(b.start, b.stop)
        np.copyto(ptr[b], u * (steps - 1), casting="unsafe")
        ptr[b] += 1                         # step t copies step int(u * (t - 1)) + 1
        np.copyto(ptr[b], steps, where=explore[b])  # an exploring step is its own root
        np.copyto(dest[b], u * (steps + 1), casting="unsafe")  # it explores to int(u * (t + 1))
    del explore
    hits = dest[_roots(ptr)[1:]]
    del ptr, dest                           # freed before bincount and DegreeSequence copy
    counts = np.bincount(hits, minlength=n)
    del hits
    counts += 1                             # each creator's arrival unit
    return DegreeSequence(counts=counts, steps=n - 1)


def simulate_ba(n_nodes: int, m: int = 1, seed: int = 0) -> DegreeSequence:
    """Grow a preferential-attachment graph of n_nodes > m nodes, each
    arrival wiring m >= 1 edges, from a complete seed graph; deterministic
    for a fixed seed.

    Each of the n - (m+1) arriving nodes attaches m edges to distinct
    existing nodes drawn from the edge-endpoint urn (one entry per endpoint,
    so a draw lands on a node with probability proportional to its degree);
    duplicate targets are redrawn. Degree sum equals twice the edge count.

    Node v draws from the first m(m+1) + 2m(v-m-1) urn slots, a length fixed
    in advance; odd slots hold known source nodes and even slots the targets
    of earlier draws. A block of nodes is resolved at once by pointer
    jumping, assuming no rejection, from the same uniform stream the
    one-at-a-time draws would read. The block is committed up to the first
    node whose m targets repeat; that node is redrawn sequentially, with its
    rejections, and the next block starts after the draws it consumed.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if n_nodes <= m:
        raise DomainError("ba model needs n_nodes > m")
    n = n_nodes
    rng = make_rng(seed)
    n_edges = m * (m + 1) // 2 + m * (n - m - 1)
    seed_len = m * (m + 1)
    urn = np.zeros(2 * n_edges, dtype=np.int64)
    urn[:seed_len] = [x for i in range(m + 1) for j in range(i + 1, m + 1) for x in (i, j)]
    urn[seed_len + 1::2] = np.repeat(np.arange(m + 1, n, dtype=np.int64), m)
    u = np.empty(0)   # uniforms drawn from the stream but not consumed yet
    pos = 0
    v = m + 1
    while v < n:
        ulen = seed_len + 2 * m * (v - m - 1)  # urn length at node v
        b = min(n - v, _BA_BLOCK_MAX, max(_BA_BLOCK_MIN, v // _BA_BLOCK_DIV))
        k = b * m
        if u.size - pos < k:
            u = np.concatenate((u[pos:], rng.random(k - (u.size - pos))))
            pos = 0
        lens = np.repeat(np.arange(ulen, ulen + 2 * k, 2 * m, dtype=np.int64), m)
        slot = np.multiply(u[pos:pos + k], lens).astype(np.int64)
        ptr = np.arange(k, dtype=np.int64)
        open_ = (slot >= ulen) & (slot % 2 == 0)  # targets drawn in this block
        ptr[open_] = (slot[open_] - ulen) // 2
        draws = urn[slot][_roots(ptr)].reshape(b, m)
        srt = np.sort(draws, axis=1)
        dup = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        ok = int(dup.argmax()) if dup.any() else b
        urn[ulen:ulen + 2 * ok * m:2] = draws[:ok].ravel()
        pos += ok * m
        v += ok
        if ok == b:
            continue
        ulen += 2 * ok * m
        targets = []
        while len(targets) < m:     # the rejecting node, one draw at a time
            if pos == u.size:
                u, pos = rng.random(m), 0
            t = int(urn[int(u[pos] * ulen)])
            pos += 1
            if t not in targets:
                targets.append(t)
        urn[ulen:ulen + 2 * m:2] = targets
        v += 1
    return DegreeSequence(counts=np.bincount(urn, minlength=n), steps=n_edges)


def measure_exponent(d: DegreeSequence, min_tail: int = 50) -> TailFit:
    """Discrete tail fit of the positive counts of a run."""
    return select_xmin(make_sample(d.counts, kind=DISCRETE), min_tail)


def gamma_sweep(gammas, n_nodes: int, seeds_per_gamma: int, seed: int):
    """Measured vs predicted exponent across exploration levels.

    Returns rows (gamma, alpha_predicted, alpha_measured_mean,
    alpha_measured_sd, n_runs) sorted by gamma; each cell averages
    `seeds_per_gamma` independent runs with seeds derived from
    (seed, gamma index, run index).
    """
    for g in gammas:
        if not 0.0 <= g <= 0.9:
            raise DomainError(f"sweep gamma must lie in [0, 0.9], got {g}")
    if seeds_per_gamma < 1:
        raise DomainError(f"seeds_per_gamma must be >= 1, got {seeds_per_gamma}")
    rows = []
    for gi, g in enumerate(sorted(gammas)):
        alphas = []
        for r in range(seeds_per_gamma):
            run_seed = int(make_rng(seed, gi, r).integers(2**63))
            alphas.append(measure_exponent(simulate_copy(n_nodes, g, run_seed)).alpha)
        mean = float(np.mean(alphas))
        sd = float(np.std(alphas, ddof=1)) if len(alphas) > 1 else 0.0
        rows.append((g, theoretical_alpha(g), mean, sd, len(alphas)))
    return rows


def ccdf_slope(d: DegreeSequence, lo: float = 10.0, hi: float = 500.0) -> float:
    """Least-squares slope of the log-log degree CCDF over [lo, hi].

    The window avoids small-degree curvature and max-degree noise.
    """
    s = make_sample(d.counts, kind=DISCRETE)
    xs, fr = empirical_ccdf(s)
    w = (xs >= lo) & (xs <= hi)
    if w.sum() < 3:
        raise DomainError(f"CCDF window [{lo}, {hi}] holds fewer than 3 points")
    slope, _ = np.polyfit(np.log10(xs[w]), np.log10(fr[w]), 1)
    return float(slope)


def degrees_csv(d: DegreeSequence) -> str:
    """Single-column CSV of per-node counts: a `count` header, then one
    decimal integer per line, the same text as `str(count)` per line.

    Encoded in numpy a block of 65 536 counts at a time, into one ASCII
    buffer per block, so no per-count `str` is built.
    """
    c = d.counts
    return "".join(["count\n", *(_decimal_lines(c[i:i + _BLOCK])
                                 for i in range(0, c.size, _BLOCK))])


def _decimal_lines(v: np.ndarray) -> str:
    """Each of the (one or more) int64 values >= 0 in decimal, followed by
    a newline."""
    end = np.cumsum(np.searchsorted(_POW10, v, side="right") + 2)  # digits + "\n"
    buf = np.empty(int(end[-1]), dtype=np.uint8)
    buf[end - 1] = ord("\n")
    pos = end - 2  # each value's last digit; digits are written right to left
    while pos.size:
        buf[pos] = v % 10 + ord("0")
        v = v // 10
        pos -= 1
        more = v > 0
        pos, v = pos[more], v[more]
    return buf.tobytes().decode("ascii")


def sweep_csv(rows) -> str:
    """CSV of `gamma_sweep` rows."""
    return csv_table(("gamma", "alpha_pred", "alpha_mean", "alpha_sd", "n_runs"), rows)
