"""Closed-form stability conditions for structured pairs.

For several sign-structured families, diagonal Riccati feasibility reduces to
a scalar or Hurwitz test. Detection is purely structural (exact zeros, sign
constraints). The Hurwitz classes decide from the spectral abscissa of the
Metzler comparison matrix, the value each verdict reports, banded relative
to the matrix entries; the 3x3 feedback margins carry an absolute band of
1e-9. Boundary instances are reported as Marginal instead of being guessed
at.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ClassMismatchError, ContractError
from .matcore import (
    HurwitzResult,
    hurwitz_band,
    is_metzler,
    is_nonnegative,
    sign_envelopes,
    spectral_abscissa,
)
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
    STABLE = "Stable"
    NOT_STABLE = "NotStable"
    MARGINAL = "Marginal"


_HURWITZ_TO_STABILITY = {
    HurwitzResult.HURWITZ: Stability.STABLE,
    HurwitzResult.NOT_HURWITZ: Stability.NOT_STABLE,
    HurwitzResult.MARGINAL: Stability.MARGINAL,
}


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


def _sgn(x: float) -> float:
    """Sign with the convention sign(0) = +1."""
    return 1.0 if x >= 0.0 else -1.0


def _single_nonzero_row(b: np.ndarray) -> int | None:
    rows = np.flatnonzero(np.any(b != 0.0, axis=1))
    if rows.size == 0:
        return 0
    if rows.size == 1:
        return int(rows[0])
    return None


def _single_nonzero_col(b: np.ndarray) -> int | None:
    cols = np.flatnonzero(np.any(b != 0.0, axis=0))
    if cols.size == 0:
        return 0
    if cols.size == 1:
        return int(cols[0])
    return None


def _is_tridiagonal(a: np.ndarray) -> bool:
    n = a.shape[0]
    i, j = np.indices((n, n))
    return bool(np.all(a[np.abs(i - j) > 1] == 0.0))


def _is_diag_plus_last_row(a: np.ndarray) -> bool:
    n = a.shape[0]
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    off[n - 1, :] = 0.0
    return bool(np.all(off == 0.0))


def _is_superdiagonal(b: np.ndarray) -> bool:
    mask = np.ones_like(b, dtype=bool)
    n = b.shape[0]
    for i in range(n - 1):
        mask[i, i + 1] = False
    return bool(np.all(b[mask] == 0.0))


def _tridiag_sign_symmetric(a: np.ndarray) -> bool:
    sub = np.diag(a, -1)
    sup = np.diag(a, 1)
    return bool(np.all(sub * sup >= 0.0))


def _chain_signs(sub: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Signature diagonal turning a sign-symmetric tridiagonal into its
    comparison Metzler form. Each step takes its sign from the subdiagonal
    entry, falling back to the superdiagonal one when that is zero."""
    n = sub.size + 1
    d = np.ones(n)
    for i in range(n - 1):
        if sub[i] != 0.0:
            step = _sgn(sub[i])
        elif sup[i] != 0.0:
            step = _sgn(sup[i])
        else:
            step = 1.0
        d[i + 1] = step * d[i]
    return d


def _last_row_signs(c: np.ndarray, b: np.ndarray, k: int, n: int):
    """Signature pair (d, e) mapping a diag-plus-last-row A and single-column
    B onto their comparison envelopes, or None when the signs are incompatible.

    With the last diagonal sign pinned to +1, the i-th sign is forced to
    sign(c_i) wherever c_i is nonzero, and the single free column sign of E
    must then absorb sign(b_i) simultaneously for every i in the support of
    b. That is possible exactly when sign(c_i b_i) is constant over the
    coupled support and matches sign(b_n) when b_n is nonzero.
    """
    required = set()
    for i in range(n - 1):
        if c[i] != 0.0 and b[i] != 0.0:
            required.add(_sgn(c[i]) * _sgn(b[i]))
    if b[n - 1] != 0.0:
        required.add(_sgn(b[n - 1]))
    if len(required) > 1:
        return None
    ek = required.pop() if required else 1.0
    d = np.ones(n)
    for i in range(n - 1):
        if c[i] != 0.0:
            d[i] = _sgn(c[i])
        elif b[i] != 0.0:
            d[i] = _sgn(b[i]) * ek
    e = np.ones(n)
    e[k] = ek
    return d, e


def _metzler_family(a: np.ndarray) -> str | None:
    """Which A-family admits a signature D with DAD equal to the Metzler
    envelope: Metzler itself, sign-symmetric tridiagonal, or diagonal plus
    last row."""
    if is_metzler(a):
        return "metzler"
    if _is_tridiagonal(a) and _tridiag_sign_symmetric(a):
        return "tridiagonal"
    if _is_diag_plus_last_row(a):
        return "last_row"
    return None


def _chain_pattern(pair: MatrixPair) -> bool:
    if pair.n != 3:
        return False
    a, b = pair.a, pair.b
    a_ok = a[0, 1] == 0.0 and a[0, 2] == 0.0 and a[1, 2] == 0.0 and a[2, 0] == 0.0
    return a_ok and _fan_in_b_pattern(b)


def _fan_in_pattern(pair: MatrixPair) -> bool:
    if pair.n != 3:
        return False
    a, b = pair.a, pair.b
    a_ok = (
        a[0, 1] == 0.0
        and a[0, 2] == 0.0
        and a[1, 0] == 0.0
        and a[1, 2] == 0.0
    )
    return a_ok and _fan_in_b_pattern(b)


def _fan_in_b_pattern(b: np.ndarray) -> bool:
    mask = np.ones((3, 3), dtype=bool)
    mask[0, 2] = False
    mask[1, 2] = False
    return bool(np.all(b[mask] == 0.0))


def classify(pair: MatrixPair) -> ClassTag:
    """Structural pattern match, first hit in a fixed order.

    Order: Metzler A with nonnegative B; Metzler A with single-row B;
    sign-symmetric tridiagonal A with single-row B; diagonal-plus-last-row A
    with single-column B (sign-compatible); superdiagonal B over any of the
    three A families; the two 3x3 feedback patterns; Unstructured.
    """
    a, b = pair.a, pair.b
    n = pair.n

    if is_metzler(a) and is_nonnegative(b):
        return ClassTag(METZLER_NONNEG)

    row = _single_nonzero_row(b)
    if is_metzler(a) and row is not None:
        return ClassTag(METZLER_RANK_ONE_ROW, {"k": row, "b": [float(x) for x in b[row]]})

    if _is_tridiagonal(a) and _tridiag_sign_symmetric(a) and row is not None:
        return ClassTag(
            TRIDIAG_SIGN_SYM,
            {
                "k": row,
                "b": [float(x) for x in b[row]],
                "lower": [float(x) for x in np.diag(a, -1)],
                "upper": [float(x) for x in np.diag(a, 1)],
                "diag": [float(x) for x in np.diag(a)],
            },
        )

    col = _single_nonzero_col(b)
    if _is_diag_plus_last_row(a) and col is not None:
        c = a[n - 1, : n - 1] if n > 1 else np.zeros(0)
        if _last_row_signs(c, b[:, col], col, n) is not None:
            return ClassTag(
                LAST_ROW_FORM,
                {
                    "k": col,
                    "b": [float(x) for x in b[:, col]],
                    "last_row": [float(x) for x in c],
                    "diag": [float(x) for x in np.diag(a)],
                },
            )

    family = _metzler_family(a)
    if family is not None and _is_superdiagonal(b):
        sup_b = [float(b[i, i + 1]) for i in range(n - 1)]
        return ClassTag(SUPERDIAG_B, {"family": family, "b": sup_b})

    if _chain_pattern(pair):
        return ClassTag(
            CHAIN_3X3,
            {
                "a": [float(a[i, i]) for i in range(3)],
                "c": [float(a[1, 0]), float(a[2, 1])],
                "b": [float(b[0, 2]), float(b[1, 2])],
            },
        )

    if _fan_in_pattern(pair):
        return ClassTag(
            FAN_IN_3X3,
            {
                "a": [float(a[i, i]) for i in range(3)],
                "c": [float(a[2, 0]), float(a[2, 1])],
                "b": [float(b[0, 2]), float(b[1, 2])],
            },
        )

    return ClassTag(UNSTRUCTURED)


def _hurwitz_verdict(tag: ClassTag, m: np.ndarray) -> ClassVerdict:
    abscissa = spectral_abscissa(m)
    stable = _HURWITZ_TO_STABILITY[hurwitz_band(abscissa, m)]
    return ClassVerdict(tag, stable, {"spectral_abscissa": abscissa})


def metzler_nonneg_condition(pair: MatrixPair) -> ClassVerdict:
    """Metzler A, nonnegative B: feasible exactly when A + B is Hurwitz."""
    if not (is_metzler(pair.a) and is_nonnegative(pair.b)):
        raise ClassMismatchError("pair is not Metzler A with nonnegative B")
    return _hurwitz_verdict(ClassTag(METZLER_NONNEG), pair.a + pair.b)


def structured_condition(pair: MatrixPair) -> ClassVerdict:
    """Signature-reducible classes: feasibility of (A, B) is equivalent to the
    comparison pair (Metzler envelope of A, entrywise |B|) being feasible,
    hence to the Hurwitz property of their sum.

    Builds the signature matrices D, E realizing that reduction and asserts
    DAD and DBE reproduce the envelopes exactly before testing.
    """
    tag = classify(pair)
    if tag.name not in STRUCTURED_TAGS:
        raise ClassMismatchError(f"pair does not match a signature-reducible class: {tag.name}")

    a, b = pair.a, pair.b
    n = pair.n
    envelopes_a = sign_envelopes(a)
    envelopes_b = sign_envelopes(b)

    if tag.name == METZLER_RANK_ONE_ROW:
        k = tag.params["k"]
        d = np.ones(n)
        e = np.array([_sgn(d[k] * b[k, j]) for j in range(n)])
    elif tag.name == TRIDIAG_SIGN_SYM:
        k = tag.params["k"]
        d = _chain_signs(np.diag(a, -1), np.diag(a, 1))
        e = np.array([_sgn(d[k] * b[k, j]) for j in range(n)])
    elif tag.name == LAST_ROW_FORM:
        k = tag.params["k"]
        c = a[n - 1, : n - 1] if n > 1 else np.zeros(0)
        built = _last_row_signs(c, b[:, k], k, n)
        if built is None:
            raise ClassMismatchError("single-column B has sign-incompatible coupling")
        d, e = built
    else:  # SUPERDIAG_B
        family = tag.params["family"]
        if family == "metzler":
            d = np.ones(n)
        elif family == "tridiagonal":
            d = _chain_signs(np.diag(a, -1), np.diag(a, 1))
        else:
            d = np.ones(n)
            for i in range(n - 1):
                if a[n - 1, i] != 0.0:
                    d[i] = _sgn(a[n - 1, i])
        e = np.ones(n)
        for i in range(n - 1):
            e[i + 1] = _sgn(d[i] * b[i, i + 1])

    dad = a * np.outer(d, d)
    dbe = b * np.outer(d, e)
    assert np.array_equal(dad, envelopes_a.metzler), "signature reduction failed on A"
    assert np.array_equal(dbe, envelopes_b.nonneg), "signature reduction failed on B"
    return _hurwitz_verdict(tag, envelopes_a.metzler + envelopes_b.nonneg)


def _banded_verdict(tag: ClassTag, margins: dict) -> ClassVerdict:
    values = list(margins.values())
    if any(v < -MARGINAL_BAND for v in values):
        stable = Stability.NOT_STABLE
    elif all(v > MARGINAL_BAND for v in values):
        stable = Stability.STABLE
    else:
        stable = Stability.MARGINAL
    return ClassVerdict(tag, stable, margins)


def chain_feedback_condition(pair: MatrixPair) -> ClassVerdict:
    """Cascade with feedback into the last state: A lower bidiagonal, B
    feeding states 1 and 2 from state 3.

    Stable exactly when every margin below is positive: each diagonal entry
    negative, the tail product dominating its feedback term, and the full
    product dominating the combined loop term.
    """
    if not _chain_pattern(pair):
        raise ClassMismatchError("pair does not match the 3x3 chain feedback pattern")
    a = pair.a
    a1, a2, a3 = (float(a[i, i]) for i in range(3))
    c1, c2 = float(a[1, 0]), float(a[2, 1])
    b1, b2 = float(pair.b[0, 2]), float(pair.b[1, 2])
    margins = {
        "diagonal_margin": -max(a1, a2, a3),
        "tail_margin": a2 * a3 - abs(b2 * c2),
        "determinant_margin": abs(a1 * a2 * a3) - abs(c2 * (b1 * c1 - a1 * b2)),
    }
    tag = ClassTag(CHAIN_3X3, {"a": [a1, a2, a3], "c": [c1, c2], "b": [b1, b2]})
    return _banded_verdict(tag, margins)


def fan_in_feedback_condition(pair: MatrixPair) -> ClassVerdict:
    """Two decoupled states feeding a third, with feedback from it: A diagonal
    plus last row, B feeding states 1 and 2 from state 3.
    """
    if not _fan_in_pattern(pair):
        raise ClassMismatchError("pair does not match the 3x3 fan-in feedback pattern")
    a = pair.a
    a1, a2, a3 = (float(a[i, i]) for i in range(3))
    c1, c2 = float(a[2, 0]), float(a[2, 1])
    b1, b2 = float(pair.b[0, 2]), float(pair.b[1, 2])
    margins = {
        "diagonal_margin": -max(a1, a2, a3),
        "branch1_margin": a1 * a3 - abs(c1 * b1),
        "branch2_margin": a2 * a3 - abs(b2 * c2),
        "determinant_margin": abs(a1 * a2 * a3) - abs(a1 * b2 * c2 + b1 * c1 * a2),
    }
    tag = ClassTag(FAN_IN_3X3, {"a": [a1, a2, a3], "c": [c1, c2], "b": [b1, b2]})
    return _banded_verdict(tag, margins)


def correlation_form_bound(c: float, d: float) -> float:
    """Extremal value of |c*x + d*y*z| over the correlation region: x, y, z in
    [-1, 1] with 1 - (x^2 + y^2 + z^2) + 2xyz >= 0. Equals max(|c|, |c + d|),
    attained at (x, y, z) = (sign(c), 0, 0) and at corner points.
    """
    if c == 0.0 or d == 0.0:
        raise ContractError("both coefficients must be nonzero")
    return max(abs(float(c)), abs(float(c) + float(d)))


def correlation_form_bound_oracle(c: float, d: float, grid_step: float = 0.01) -> float:
    """Brute-force grid maximum of |c*x + d*y*z| over the correlation region.

    Serves as an independent check on correlation_form_bound; the grid always
    contains the exact attainment points (corners and axis points), so the
    result matches the closed form up to arithmetic rounding.
    """
    if not 0.0 < grid_step <= 0.1:
        raise ContractError("grid_step must lie in (0, 0.1]")
    npts = int(round(2.0 / grid_step)) + 1
    g = np.linspace(-1.0, 1.0, npts)
    yy, zz = np.meshgrid(g, g)
    yz = yy * zz
    ss = yy * yy + zz * zz
    best = 0.0
    for x in g:
        feasible = 1.0 - (x * x + ss) + 2.0 * x * yz >= 0.0
        if np.any(feasible):
            vals = np.abs(c * x + d * yz[feasible])
            best = max(best, float(vals.max()))
    return best


def evaluate_class(pair: MatrixPair) -> ClassVerdict:
    """Classify and run the matching closed-form condition.

    Raises ClassMismatchError for unstructured pairs; callers wanting a
    verdict regardless should fall back to the numeric solver.
    """
    tag = classify(pair)
    if tag.name == METZLER_NONNEG:
        return metzler_nonneg_condition(pair)
    if tag.name in STRUCTURED_TAGS:
        return structured_condition(pair)
    if tag.name == CHAIN_3X3:
        return chain_feedback_condition(pair)
    if tag.name == FAN_IN_3X3:
        return fan_in_feedback_condition(pair)
    raise ClassMismatchError("pair does not match any structured class")
