"""Closed-form stability conditions for structured pairs.

For several sign-structured families, diagonal Riccati feasibility reduces to
a scalar or Hurwitz test. Detection is purely structural (exact zeros, sign
constraints): classify runs each structural test at most once. evaluate_class
runs the verdict of the tag classify gives, feedback_condition that of the
3x3 feedback shape, which classify may tag otherwise. The four signature
classes are the pairs that a signature map (A, B) -> (DAD, DBE) sends to a
Metzler A and a nonnegative B; one signature solver (_signatures, a balance
test on a signed graph) finds D and E for all of them. The Hurwitz classes
decide by the tri-state Hurwitz test of the Metzler comparison matrix
(_hurwitz_verdict): its spectral abscissa, the value each verdict reports,
banded by MARGINAL_BAND relative to the matrix entries; the 3x3 feedback
margins carry MARGINAL_BAND as an absolute band. Boundary instances are
reported as Marginal instead of being guessed at.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ClassMismatchError, ContractError, RiccstabError
from .matcore import is_metzler, is_nonnegative, spectral_abscissa
from .riccati import MatrixPair

MARGINAL_BAND = 1e-9

METZLER_NONNEG = "MetzlerNonneg"
METZLER_RANK_ONE_ROW = "MetzlerRankOneRow"
TRIDIAG_SIGN_SYM = "TridiagSignSym"
LAST_ROW_FORM = "LastRowForm"
SUPERDIAG_B = "SuperdiagB"
CHAIN_3X3 = "Chain3x3"
FAN_IN_3X3 = "FanIn3x3"
UNSTRUCTURED = "Unstructured"

STRUCTURED_TAGS = (METZLER_RANK_ONE_ROW, TRIDIAG_SIGN_SYM, LAST_ROW_FORM, SUPERDIAG_B)


class Stability(str, enum.Enum):
    """Tri-state verdict of a closed-form class condition: Marginal when the
    deciding value lies within its band of zero."""

    STABLE = "Stable"
    NOT_STABLE = "NotStable"
    MARGINAL = "Marginal"


@dataclass(frozen=True)
class ClassTag:
    """Detected structural class of a pair, with its shape parameters.

    params holds plain Python scalars and lists (JSON-ready); indices are
    0-based.
    """

    name: str
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}


@dataclass(frozen=True)
class ClassVerdict:
    """Outcome of a closed-form class condition."""

    tag: ClassTag
    stable: Stability
    condition_values: dict

    def to_json(self) -> dict:
        return {
            "tag": self.tag.to_json(),
            "stable": self.stable.value,
            "condition_values": {k: float(v) for k, v in self.condition_values.items()},
        }


def _single_nonzero_line(b: np.ndarray, axis: int) -> int | None:
    """The one row (axis=1) or column (axis=0) of b that holds every nonzero
    entry: 0 when b is zero, None when two or more hold one."""
    lines = np.flatnonzero(np.any(b != 0.0, axis=axis))
    if lines.size > 1:
        return None
    return int(lines[0]) if lines.size else 0


@functools.lru_cache(maxsize=16)
def _off_tridiagonal(n: int) -> np.ndarray:
    """Read-only mask of the entries (i, j), |i - j| > 1, of an n x n matrix,
    cached per n because classify tests every pair it is given."""
    r = np.arange(n)
    mask = np.abs(r[:, None] - r) > 1
    mask.flags.writeable = False
    return mask


def _is_tridiagonal(a: np.ndarray) -> bool:
    return not a[_off_tridiagonal(a.shape[0])].any()


def _is_diag_plus_last_row(a: np.ndarray) -> bool:
    n = a.shape[0]
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    off[n - 1, :] = 0.0
    return bool(np.all(off == 0.0))


def _is_superdiagonal(b: np.ndarray) -> bool:
    return bool(np.all(b == np.diag(np.diag(b, 1), 1)))


def _tridiag_sign_symmetric(a: np.ndarray) -> bool:
    # the signs, not the entries, are multiplied: a product of tiny entries
    # of opposite sign can round to -0.0
    return bool(np.all(np.sign(np.diag(a, -1)) * np.sign(np.diag(a, 1)) >= 0.0))


def _signatures(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Signature vectors (d, e) with DAD the Metzler envelope of A and DBE
    equal to |B|, or None when no such pair exists.

    Each nonzero off-diagonal a_ij asks d_i d_j = sign(a_ij) and each nonzero
    b_ij asks d_i e_j = sign(b_ij): a signed graph on the 2n unknowns, which
    has a solution exactly when it is balanced (Harary 1953). Signs spread
    over the symmetric support of the equations from +1 at the first unknown
    of each component; then every equation is checked. Zeros, -0.0 among
    them, ask nothing.
    """
    n = a.shape[0]
    # unknown u < n is d_u, unknown n + j is e_j
    equations = [(i, j, x) for i, row in enumerate(a.tolist()) for j, x in enumerate(row) if x != 0.0 and i != j]
    equations += [(i, n + j, x) for i, row in enumerate(b.tolist()) for j, x in enumerate(row) if x != 0.0]
    neighbours = [[] for _ in range(2 * n)]
    for u, v, x in equations:
        s = 1.0 if x > 0.0 else -1.0
        neighbours[u].append((v, s))
        neighbours[v].append((u, s))
    signs = [0.0] * (2 * n)
    for root in range(2 * n):
        if signs[root]:
            continue
        signs[root] = 1.0
        stack = [root]
        while stack:
            u = stack.pop()
            for v, s in neighbours[u]:
                if not signs[v]:
                    signs[v] = s * signs[u]
                    stack.append(v)
    if any(signs[u] * signs[v] * x < 0.0 for u, v, x in equations):
        return None
    return np.array(signs[:n]), np.array(signs[n:])


# the 3x3 feedback shapes: the entries of A that must be zero, and where the
# first coupling c_1 sits (the second is a_21 in both); B is zero but for
# b_02 and b_12 in both
_FEEDBACK_SHAPES = {
    CHAIN_3X3: (((0, 1), (0, 2), (1, 2), (2, 0)), (1, 0)),
    FAN_IN_3X3: (((0, 1), (0, 2), (1, 0), (1, 2)), (2, 0)),
}


def _feedback_tag(pair: MatrixPair) -> ClassTag | None:
    """The tag of the first 3x3 feedback shape the pair has, in classify's
    order, with its diagonal a, couplings c and feedback gains b; None when
    it has neither."""
    a, b = pair.a, pair.b
    if pair.n != 3 or np.any(b[:, :2] != 0.0) or b[2, 2] != 0.0:
        return None
    for name, (zeros, coupling) in _FEEDBACK_SHAPES.items():
        if all(a[ij] == 0.0 for ij in zeros):
            c = [float(a[coupling]), float(a[2, 1])]
            return ClassTag(name, {"a": np.diag(a).tolist(), "c": c, "b": b[:2, 2].tolist()})
    return None


def classify(pair: MatrixPair) -> ClassTag:
    """Structural pattern match, first hit in a fixed order.

    Order: Metzler A with nonnegative B; Metzler A with single-row B;
    sign-symmetric tridiagonal A with single-row B; diagonal-plus-last-row A
    with single-column B (sign-compatible); superdiagonal B over any of the
    three A families; the two 3x3 feedback patterns; Unstructured. Each
    structural test runs at most once.
    """
    a, b = pair.a, pair.b

    metzler = is_metzler(a)
    if metzler and is_nonnegative(b):
        return ClassTag(METZLER_NONNEG)

    row = _single_nonzero_line(b, axis=1)
    if metzler and row is not None:
        return ClassTag(METZLER_RANK_ONE_ROW, {"k": row, "b": b[row].tolist()})

    tridiagonal = _is_tridiagonal(a) and _tridiag_sign_symmetric(a)
    if tridiagonal and row is not None:
        lower, upper, diag = (np.diag(a, k).tolist() for k in (-1, 1, 0))
        return ClassTag(TRIDIAG_SIGN_SYM, {"k": row, "b": b[row].tolist(), "lower": lower, "upper": upper, "diag": diag})

    last_row = _is_diag_plus_last_row(a)
    col = _single_nonzero_line(b, axis=0)
    if last_row and col is not None and _signatures(a, b) is not None:
        params = {"k": col, "b": b[:, col].tolist(), "last_row": a[-1, :-1].tolist(), "diag": np.diag(a).tolist()}
        return ClassTag(LAST_ROW_FORM, params)

    # the A-families with a signature D that makes DAD the Metzler envelope
    family = "metzler" if metzler else "tridiagonal" if tridiagonal else "last_row" if last_row else None
    if family is not None and _is_superdiagonal(b):
        return ClassTag(SUPERDIAG_B, {"family": family, "b": np.diag(b, 1).tolist()})

    return _feedback_tag(pair) or ClassTag(UNSTRUCTURED)


def _hurwitz_verdict(tag: ClassTag, m: np.ndarray) -> ClassVerdict:
    """Tri-state Hurwitz test of m from its spectral abscissa mu, the value
    reported. Marginal when |mu| <= MARGINAL_BAND * max|m_ij|: the band is
    relative to the entries with no absolute floor, so c * m gets the
    verdict of m for every c > 0."""
    mu = spectral_abscissa(m)
    if abs(mu) <= MARGINAL_BAND * float(np.abs(m).max()):
        stable = Stability.MARGINAL
    else:
        stable = Stability.STABLE if mu < 0.0 else Stability.NOT_STABLE
    return ClassVerdict(tag, stable, {"spectral_abscissa": mu})


def _metzler_verdict(pair: MatrixPair, tag: ClassTag) -> ClassVerdict:
    """Metzler A, nonnegative B: feasible exactly when A + B is Hurwitz."""
    return _hurwitz_verdict(tag, pair.a + pair.b)


def _signature_verdict(pair: MatrixPair, tag: ClassTag) -> ClassVerdict:
    """Hurwitz test of the Metzler envelope of A (|a_ij| off the diagonal)
    plus |B|, once D, E are checked to map the pair exactly onto the two."""
    a, b = pair.a, pair.b
    metzler, nonneg = np.abs(a), np.abs(b)
    np.fill_diagonal(metzler, a.diagonal())
    d, e = _signatures(a, b)
    if not np.array_equal(a * np.outer(d, d), metzler):
        raise RiccstabError("signature reduction failed on A")
    if not np.array_equal(b * np.outer(d, e), nonneg):
        raise RiccstabError("signature reduction failed on B")
    return _hurwitz_verdict(tag, metzler + nonneg)


def _banded_verdict(tag: ClassTag, margins: dict) -> ClassVerdict:
    values = list(margins.values())
    if any(v < -MARGINAL_BAND for v in values):
        stable = Stability.NOT_STABLE
    elif all(v > MARGINAL_BAND for v in values):
        stable = Stability.STABLE
    else:
        stable = Stability.MARGINAL
    return ClassVerdict(tag, stable, margins)


def _chain_verdict(pair: MatrixPair, tag: ClassTag) -> ClassVerdict:
    (a1, a2, a3), (c1, c2), (b1, b2) = tag.params["a"], tag.params["c"], tag.params["b"]
    margins = {
        "diagonal_margin": -max(a1, a2, a3),
        "tail_margin": a2 * a3 - abs(b2 * c2),
        "determinant_margin": abs(a1 * a2 * a3) - abs(c2 * (b1 * c1 - a1 * b2)),
    }
    return _banded_verdict(tag, margins)


def _fan_in_verdict(pair: MatrixPair, tag: ClassTag) -> ClassVerdict:
    (a1, a2, a3), (c1, c2), (b1, b2) = tag.params["a"], tag.params["c"], tag.params["b"]
    margins = {
        "diagonal_margin": -max(a1, a2, a3),
        "branch1_margin": a1 * a3 - abs(c1 * b1),
        "branch2_margin": a2 * a3 - abs(b2 * c2),
        "determinant_margin": abs(a1 * a2 * a3) - abs(a1 * b2 * c2 + b1 * c1 * a2),
    }
    return _banded_verdict(tag, margins)


# the closed-form verdict of each structured tag, (pair, tag) -> ClassVerdict
_VERDICTS = {
    METZLER_NONNEG: _metzler_verdict,
    **dict.fromkeys(STRUCTURED_TAGS, _signature_verdict),
    CHAIN_3X3: _chain_verdict,
    FAN_IN_3X3: _fan_in_verdict,
}


def feedback_condition(pair: MatrixPair) -> ClassVerdict:
    """Verdict of a 3x3 feedback loop by its shape, whatever classify tags it.

    Chain: a cascade, A lower bidiagonal. Fan-in: two decoupled states
    feeding a third, A diagonal plus last row. In both, B feeds states 1 and
    2 from state 3, and the pair is stable exactly when every margin is
    positive: each diagonal entry negative, each tail or branch product
    dominating its feedback term, and the full product dominating the
    combined loop term. A pair of both shapes is read as the chain. Raises
    ClassMismatchError for a pair of neither.
    """
    tag = _feedback_tag(pair)
    if tag is None:
        raise ClassMismatchError("pair does not match a 3x3 feedback pattern")
    return _VERDICTS[tag.name](pair, tag)


def correlation_form_bound(c: float, d: float) -> float:
    """Extremal value of |c*x + d*y*z| over the correlation region: x, y, z in
    [-1, 1] with 1 - (x^2 + y^2 + z^2) + 2xyz >= 0. Equals max(|c|, |c + d|),
    attained at (x, y, z) = (sign(c), 0, 0) and at corner points.
    """
    if c == 0.0 or d == 0.0:
        raise ContractError("both coefficients must be nonzero")
    return max(abs(float(c)), abs(float(c) + float(d)))


@functools.lru_cache(maxsize=8)
def _correlation_grid_table(npts: int) -> np.ndarray:
    """One sweep of the npts^3 grid over [-1, 1]^3: one row (x, smallest
    feasible y*z, largest feasible y*z) per grid value x that has a feasible
    (y, z). Odd npts puts (0, 0, 0) on the grid, so the table is never
    empty. It is read-only, since the cache hands it to every caller."""
    g = np.linspace(-1.0, 1.0, npts)
    yy, zz = np.meshgrid(g, g)
    yz = yy * zz
    ss = yy * yy + zz * zz
    rows = []
    for x in g:
        feasible = 1.0 - (x * x + ss) + 2.0 * x * yz >= 0.0
        if np.any(feasible):
            w = yz[feasible]
            rows.append((x, w.min(), w.max()))
    table = np.array(rows)
    table.flags.writeable = False
    return table


def correlation_form_bound_oracle(c: float, d: float, grid_step: float = 0.01) -> float:
    """Brute-force grid maximum of |c*x + d*y*z| over the correlation region.

    Serves as an independent check on correlation_form_bound: every grid
    point goes through the feasibility test and the closed form is not used.
    The grid has an odd number of points per axis, so it always contains the
    exact attainment points (corners and axis points), and the result
    matches the closed form up to arithmetic rounding.

    The grid is swept once per grid size, not once per call. For fixed c, x
    and d the computed value fl(c*x + fl(d*w)) is monotone in w, because
    round-to-nearest is monotone, so its largest magnitude over the feasible
    w = y*z of one x is reached at the smallest or the largest of them. The
    result is bitwise the maximum over every feasible grid point.
    """
    if not 0.0 < grid_step <= 0.1:
        raise ContractError("grid_step must lie in (0, 0.1]")
    xs, lo, hi = _correlation_grid_table(2 * int(round(1.0 / grid_step)) + 1).T
    cx = c * xs
    return float(np.maximum(np.abs(cx + d * lo), np.abs(cx + d * hi)).max())


def evaluate_class(pair: MatrixPair) -> ClassVerdict:
    """Classify once and run the matching closed-form condition.

    Raises ClassMismatchError for unstructured pairs; callers wanting a
    verdict regardless should fall back to the numeric solver.
    """
    tag = classify(pair)
    if tag.name not in _VERDICTS:
        raise ClassMismatchError("pair does not match any structured class")
    return _VERDICTS[tag.name](pair, tag)
