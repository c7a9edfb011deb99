"""Angular Fourier analysis on the boundary cylinder Gamma x S^1.

Boundary data g(z, theta) is reduced to its nonpositive angular modes:
a ModeTrace stores rows k = 0..N with row k holding g_{-k} at every
boundary node.  The module provides the projection onto nonpositive
modes, truncated and power-series sequence convolution, and the
weighted norms used as decay diagnostics.

All angular grids are uniform, phi_j = 2 pi j / M, and projections are
plain DFTs: exact for trigonometric polynomials of degree <= N whenever
M >= 2N+2.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse


@dataclass(frozen=True)
class AngularGrid:
    """Uniform grid on the circle of directions."""

    n_angles: int
    angles: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_angles < 4:
            raise GridTooCoarse("angular grid needs at least 4 samples")
        object.__setattr__(
            self, "angles", 2.0 * np.pi * np.arange(self.n_angles) / self.n_angles
        )

    def check_modes(self, n_modes):
        if self.n_angles < 2 * n_modes + 2:
            raise GridTooCoarse(
                "M = %d angles cannot resolve N = %d modes (need M >= 2N+2)"
                % (self.n_angles, n_modes)
            )


class ModeTrace:
    """Nonpositive angular modes of boundary data.

    data[k, i] = g_{-k}(z_i) for k = 0..n_modes, i over boundary nodes.
    """

    def __init__(self, boundary, n_modes, data):
        data = np.asarray(data, dtype=complex)
        if n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if data.shape != (n_modes + 1, boundary.n_nodes):
            raise ValueError(
                "mode data shape %r does not match (N+1, n_nodes) = %r"
                % (data.shape, (n_modes + 1, boundary.n_nodes))
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("mode data contains non-finite entries")
        self.boundary = boundary
        self.n_modes = int(n_modes)
        self.data = data


def project_minus(g, n_modes):
    """Project a sinogram onto its nonpositive angular modes.

    Parameters
    ----------
    g : Sinogram
        Real samples on boundary nodes x uniform angular grid.
    n_modes : int
        Truncation level N.

    Returns
    -------
    ModeTrace with row k = g_{-k}, computed as (1/M) sum_j g_j e^{+ik phi_j}.
    """
    values = np.asarray(g.data, dtype=float)
    m = values.shape[1]
    if m < 2 * n_modes + 2:
        raise GridTooCoarse(
            "sinogram with %d angles cannot resolve %d modes" % (m, n_modes)
        )
    # ifft carries the e^{+i k phi_j} kernel and the 1/M factor.
    modes = np.fft.ifft(values, axis=1)[:, : n_modes + 1]
    return ModeTrace(g.boundary, n_modes, modes.T.copy())


def convolve(a, g):
    """Truncated convolution of a nonnegative-index sequence with mode rows.

    g is a mode matrix of shape (N+1, n_cols) whose row m is index -m,
    and (a * g)_{-m} = sum_k a_k g_{-m-k} runs while m + k <= N; terms
    that would reach below -N are dropped.  `a` has shape (N+1, n_cols),
    one sequence per column, or (N+1, 1), one for every column.
    Power-series products of two nonnegative sequences are convolve_seq.
    """
    amat = np.asarray(a, dtype=complex)
    gmat = np.asarray(g, dtype=complex)
    n = gmat.shape[0] - 1
    if amat.shape[0] != n + 1:
        raise ValueError("sequence lengths differ: %d vs %d" % (amat.shape[0], n + 1))
    out = np.zeros_like(gmat)
    for m in range(n + 1):
        # a broadcasts over columns whether stored per-node or globally
        out[m] = np.sum(amat[: n + 1 - m] * gmat[m:], axis=0)
    return out


def convolve_seq(a, b):
    """Power-series convolution of two nonnegative-index sequences.

    Accepts per-node matrices of shape (N+1, n_cols); columns convolve
    independently.  All index sums stay within 0..N, so no terms drop.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[0] != b.shape[0]:
        raise ValueError("sequence lengths differ: %d vs %d" % (a.shape[0], b.shape[0]))
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for m in range(a.shape[0]):
        out[m] = np.sum(a[: m + 1] * b[m::-1], axis=0)
    return out


def weighted_norms(v):
    """Truncated decay norms of a mode trace.

    Returns (l11, l12, l1): sup over nodes of sum_k k |v_{-k}|,
    sum_k k^2 |v_{-k}|, and sum_k |v_{-k}|.
    """
    k = np.arange(v.data.shape[0], dtype=float)
    absv = np.abs(v.data)
    l1 = float(np.max(np.sum(absv, axis=0)))
    l11 = float(np.max(np.sum(k[:, None] * absv, axis=0)))
    l12 = float(np.max(np.sum((k ** 2)[:, None] * absv, axis=0)))
    return l11, l12, l1
