"""Stability-preserving transformations with explicit certificate maps.

Each operation here sends a diagonally Riccati stable pair to another such
pair, and where a constructive map exists the transformed certificate is
returned alongside so callers never have to re-solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError
from .matcore import BlockSymmetric, as_vector
from .riccati import WITNESS_PSD_TOL, MatrixPair, RiccatiCertificate, verify_certificate

DIAG_MATCH_RTOL = 1e-10

CertificateMap = Callable[[RiccatiCertificate], RiccatiCertificate]


@dataclass(frozen=True, eq=False)
class ScalingPair:
    """Diagonal scaling matrices D = diag(d), E = diag(e) of equal size."""

    d: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        d = as_vector(self.d)
        e = as_vector(self.e, d.size)  # as_vector refuses non-finite entries
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)


def _require_contraction(scaling: ScalingPair) -> None:
    d2 = scaling.d * scaling.d
    e2 = scaling.e * scaling.e
    if np.any(e2 <= 0.0) or np.any(e2 > d2):
        raise ContractError("scaling must satisfy 0 < e_ii^2 <= d_ii^2")


def dad_transform(pair: MatrixPair, scaling: ScalingPair) -> tuple[MatrixPair, CertificateMap]:
    """Congruence-like scaling (A, B) -> (DAD, DBE) for 0 < e_ii^2 <= d_ii^2.

    Returns the scaled pair together with the certificate map
    (P, Q) -> (P, DQD), which turns any diagonal certificate for the input
    pair into one for the output pair. The mapped certificate's margin is
    recomputed on the transformed pair rather than carried over, since the
    congruence rescales the block form's eigenvalues.
    """
    if scaling.d.size != pair.n:
        raise ContractError(f"scaling size {scaling.d.size} does not match pair size {pair.n}")
    _require_contraction(scaling)
    d = scaling.d
    e = scaling.e
    out = MatrixPair(pair.a * np.outer(d, d), pair.b * np.outer(d, e))

    def map_certificate(cert: RiccatiCertificate) -> RiccatiCertificate:
        p_new = cert.p.copy()
        q_new = d * d * cert.q
        ok, margin = verify_certificate(out, p_new, q_new, 0.0)
        if not ok:
            raise ContractError(
                "mapped certificate failed verification; the input certificate "
                "does not appear to be valid for the source pair"
            )
        return RiccatiCertificate(p=p_new, q=q_new, margin=margin)

    return out, map_certificate


def _require_correlation_shape(s: BlockSymmetric) -> None:
    """Check equal, strictly positive block diagonals."""
    d11 = np.diag(s.b11)
    d22 = np.diag(s.b22)
    if np.any(d11 <= 0.0):
        raise ContractError("block diagonals of S must be strictly positive")
    if not np.allclose(d11, d22, rtol=DIAG_MATCH_RTOL, atol=0.0):
        raise ContractError("diag(S11) and diag(S22) must agree")


def _require_psd(s: BlockSymmetric) -> None:
    smallest = float(np.linalg.eigvalsh(s.full)[0])
    if smallest < -WITNESS_PSD_TOL:
        raise ContractError(f"S must be positive semidefinite, min eigenvalue {smallest:.3e}")


def hadamard_congruence(pair: MatrixPair, s: BlockSymmetric) -> MatrixPair:
    """Entrywise damping (A, B) -> (A o S11, B o S12).

    S must be positive semidefinite with equal, strictly positive diagonals
    on its two diagonal blocks. Feasibility of the input pair carries over
    to the output pair.
    """
    if s.n != pair.n:
        raise ContractError(f"S block size {s.n} does not match pair size {pair.n}")
    _require_correlation_shape(s)
    _require_psd(s)
    return MatrixPair(pair.a * s.b11, pair.b * s.b12)
