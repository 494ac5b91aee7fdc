"""Seeded inputs for the three benchmark workloads.

Everything here is generated in code from the workload seed; the same seed
gives the same matrices, bit for bit. The composition of each input set
(slice sizes, matrix sizes, which instances are built to be feasible,
refuted or on the boundary) is fixed, so runs with different seeds do the
same kind and amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from riccstab import MatrixPair, Stability, evaluate_class
from riccstab import acceptance

DENSE_SIZES = tuple(range(1, 15))
SCALED_MAX_N = 11  # beyond it the P-matrix walk dominates and the copy adds nothing
# feasible pairs at n = 11 (the dense one plus these), so that ranks 11 to 21
# of the latency ranking, among them the ones the p90 reads, are P-matrix
# walks of one size rather than whichever instance happens to land there
P90_BLOCK = (11, 10)
BOUNDARY_SIZES = (2,)
BOUNDARY_EPS = 1e-9
SCALES = (1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9)
# fixed base pairs, so the scaled copies are the same in every run, each with
# its number of random signature conjugates: the README pair, a 3x3 pair whose
# c = 1e9 copy also comes out Unknown at the seed, and two pairs the all-ones
# extreme refutes. A conjugate costs what its base costs, so the README pair's
# 24 put the median latency inside a run of equal costs.
INVARIANCE_BASES = (
    ([[-3.0, 1.0], [1.0, -3.0]], [[1.0, 0.0], [0.0, 1.0]], 24),
    (
        [[-2.235, 0.006, 0.107], [-0.122, -2.109, 0.009], [-0.051, 0.158, -1.591]],
        [[-0.372, 0.023, 0.179], [-0.058, 0.212, -0.021], [0.207, 0.446, -0.209]],
        2,
    ),
    ([[-1.0, 2.5], [2.2, -1.5]], [[0.2, 0.0], [0.3, 0.1]], 2),
    (
        [[-1.5, 0.4, 2.8], [0.3, -2.0, 0.2], [2.6, -0.1, -1.2]],
        [[0.2, 0.1, 0.0], [0.0, 0.3, 0.1], [0.1, 0.0, 0.2]],
        2,
    ),
)
STRUCTURED_PER_VERDICT = 2  # per generator, of each oracle verdict
SIZE_EDGE = (15, 16)
ORACLE_MARGIN = 0.05  # the battery's boundary filter

# the battery's structured generators, drawn in this order
STRUCTURED_GENERATORS = (
    ("metzler", lambda rng: acceptance._metzler_pair(rng, int(rng.integers(2, 6)))),
    ("chain", acceptance._chain_instance),
    ("fan_in", acceptance._fan_in_instance),
    ("rank_one_row", acceptance._rank_one_row_instance),
    ("tridiagonal", acceptance._tridiag_instance),
    ("last_row", acceptance._last_row_instance),
    ("superdiagonal", acceptance._superdiag_instance),
)

SIM_SIZES = tuple(range(1, 9))
SIM_TAUS = (0.0, 0.1, 1.0, 5.0, 25.0)
SIM_STEP = 0.02
SIM_HORIZON = 60.0


@dataclass(frozen=True, eq=False)
class Item:
    """One solver input of the check corpus.

    group ties invariance copies to their base pair (a verdict may not differ
    within a group); expect is the class oracle's verdict for structured
    pairs ("Feasible" or "Refuted"), None elsewhere.
    """

    key: str
    slice: str
    pair: MatrixPair
    group: str | None = None
    expect: str | None = None


def _feasible_dense(rng, n: int) -> MatrixPair:
    """Dense pair that P = Q = I certifies with margin at least 0.9:
    A = E - diag(d) with |E + E'| <= 0.3, d in [1.5, 2.5], |B| <= 0.6."""
    e = rng.standard_normal((n, n))
    e *= 0.3 / max(float(np.linalg.norm(e + e.T, 2)), 1e-12)
    b = rng.standard_normal((n, n))
    b *= 0.6 / max(float(np.linalg.norm(b, 2)), 1e-12)
    return MatrixPair(e - np.diag(rng.uniform(1.5, 2.5, n)), b)


def _similarity_scaled(rng, pair: MatrixPair) -> MatrixPair:
    """T A T^-1, T B T^-1 for a spread positive diagonal T: still feasible,
    but P = Q = I no longer certifies, so the search has to move."""
    t = np.exp(rng.uniform(-1.2, 1.2, pair.n))
    ratio = t[:, None] / t[None, :]
    return MatrixPair(pair.a * ratio, pair.b * ratio)


def _refuted_dense(rng, n: int) -> MatrixPair:
    """Dense pair whose all-ones extreme -(A + B) has a nonpositive minor:
    the 1x1 minor for n = 1, the leading 2x2 minor otherwise."""
    if n == 1:
        a = -rng.uniform(1.0, 2.0)
        return MatrixPair([[a]], [[rng.choice([-1.0, 1.0]) * (-a + rng.uniform(0.5, 1.5))]])
    a = 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    np.fill_diagonal(a, -rng.uniform(1.0, 2.0, n))
    b = 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    np.fill_diagonal(b, 0.0)
    link = rng.uniform(3.0, 4.0)
    a[0, 1] = a[1, 0] = link
    b[0, 1] = b[1, 0] = 0.5
    return MatrixPair(a, b)


def _boundary_dense(rng, n: int) -> MatrixPair:
    """A = -I + K (K skew), B = (1 - eps) U (U orthogonal): feasible with a
    margin of order eps, far below the solver tolerance, and no witness
    exists; the honest verdict is Unknown."""
    k = rng.standard_normal((n, n))
    k = 0.3 * (k - k.T)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return MatrixPair(-np.eye(n) + k, (1.0 - BOUNDARY_EPS) * u)


def _signature_copy(rng, pair: MatrixPair) -> MatrixPair:
    d = rng.choice([-1.0, 1.0], pair.n)
    e = rng.choice([-1.0, 1.0], pair.n)
    return MatrixPair(pair.a * np.outer(d, d), pair.b * np.outer(d, e))


def _oracle(pair: MatrixPair) -> str | None:
    """Class verdict mapped to the solver's vocabulary; None for pairs the
    battery would discard (Marginal, or within ORACLE_MARGIN of a boundary)."""
    verdict = evaluate_class(pair)
    if verdict.stable is Stability.MARGINAL:
        return None
    if np.abs(np.array(list(verdict.condition_values.values()))).min() < ORACLE_MARGIN:
        return None
    return "Feasible" if verdict.stable is Stability.STABLE else "Refuted"


def check_corpus(seed: int, small: bool = False) -> list[Item]:
    """The check workload's corpus, four slices; the seed draws the dense and
    structured pairs and the signatures of the conjugated copies.

    small keeps one or two instances per slice, for the harness smoke test.
    """
    rng = np.random.default_rng([seed, 101])
    items: list[Item] = []
    dense_sizes = (1, 3) if small else DENSE_SIZES
    for n in dense_sizes:
        feasible = _feasible_dense(rng, n)
        items.append(Item(f"dense/feasible/n{n}", "dense", feasible))
        if n <= SCALED_MAX_N:
            items.append(Item(f"dense/scaled/n{n}", "dense", _similarity_scaled(rng, feasible)))
        items.append(Item(f"dense/refuted/n{n}", "dense", _refuted_dense(rng, n)))
    if not small:
        n, count = P90_BLOCK
        items += [Item(f"dense/feasible/n{n}-{k}", "dense", _feasible_dense(rng, n)) for k in range(count)]
    for n in BOUNDARY_SIZES:
        items.append(Item(f"dense/boundary/n{n}", "dense", _boundary_dense(rng, n)))

    rng = np.random.default_rng([seed, 102])
    generators = STRUCTURED_GENERATORS[:2] if small else STRUCTURED_GENERATORS
    per_verdict = 1 if small else STRUCTURED_PER_VERDICT
    for name, generator in generators:
        kept = {"Feasible": 0, "Refuted": 0}
        while min(kept.values()) < per_verdict:
            pair = generator(rng)
            expect = _oracle(pair)
            if expect is None or kept[expect] == per_verdict:
                continue
            items.append(Item(f"structured/{name}/{expect}{kept[expect]}", "structured", pair, expect=expect))
            kept[expect] += 1

    rng = np.random.default_rng([seed, 103])
    bases = INVARIANCE_BASES[:1] if small else INVARIANCE_BASES
    for index, (a, b, conjugates) in enumerate(bases):
        base = MatrixPair(a, b)
        group = f"invariance/{index}"
        items.append(Item(f"{group}/base", "invariance", base, group=group))
        for c in SCALES[:1] if small else SCALES:
            items.append(Item(f"{group}/c{c:g}", "invariance", MatrixPair(c * base.a, c * base.b), group=group))
        for k in range(2 if small else conjugates):
            items.append(Item(f"{group}/sig{k}", "invariance", _signature_copy(rng, base), group=group))

    for n in SIZE_EDGE[:1] if small else SIZE_EDGE:
        items.append(Item(f"size_edge/n{n}", "size_edge", MatrixPair(-2.0 * np.eye(n), 0.1 * np.eye(n))))
    return items


def sim_pairs(seed: int, small: bool = False) -> list[MatrixPair]:
    """Certifiable pairs for the simulate workload, one per size: the battery's
    delay_decay family (dominant diagonal in [-2.2, -1.5], small couplings,
    random signatures), whose decay rates keep long runs clear of underflow."""
    rng = np.random.default_rng([seed, 201])
    pairs = []
    for n in (1, 3) if small else SIM_SIZES:
        diag = rng.uniform(-2.2, -1.5, n)
        a = rng.uniform(0.0, 0.2 / max(1, n - 1), (n, n))
        np.fill_diagonal(a, diag)
        b = rng.uniform(0.0, 0.25 / n, (n, n))
        pairs.append(_signature_copy(rng, MatrixPair(a, b)))
    return pairs


def sim_horizon(tau: float) -> float:
    """Horizon per delay: SIM_HORIZON, or long enough to see five delays pass."""
    return max(SIM_HORIZON, 5.0 * tau + 40.0)


def structured_cli_pair(seed: int) -> MatrixPair:
    """A Chain3x3 pair away from its boundary, for the battery's classify call."""
    rng = np.random.default_rng([seed, 301])
    while True:
        pair = acceptance._chain_instance(rng)
        if _oracle(pair) is not None:
            return pair
