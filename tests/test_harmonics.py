"""Angular Fourier projections, mode containers, and sequence algebra."""
import numpy as np
import pytest

from aradon.errors import GridTooCoarse
from aradon.harmonics import (
    AngularGrid,
    ModeTrace,
    convolve,
    convolve_seq,
    project_minus,
    weighted_norms,
)
from aradon.xray import Sinogram
from oracles import identity_seq, lemma21_identity


def sinogram_from(boundary, angular, func):
    """Sinogram with data[i, j] = func(phi_j) at every node i."""
    vals = np.array([func(ph) for ph in angular.angles])
    data = np.tile(vals, (boundary.n_nodes, 1))
    return Sinogram(boundary, angular, data, attenuated=False, meta={})


class TestAngularGrid:
    def test_nodes(self):
        g = AngularGrid(8)
        assert g.n_angles == 8
        assert np.allclose(g.angles, np.arange(8) * np.pi / 4)

    def test_directions_unit(self, ang64):
        d = np.stack([np.cos(ang64.angles), np.sin(ang64.angles)], axis=1)
        assert np.allclose(np.hypot(d[:, 0], d[:, 1]), 1.0)


class TestProjections:
    def test_cos_lands_in_row_one(self, disk256, ang64):
        sino = sinogram_from(disk256, ang64, np.cos)
        g = project_minus(sino, 4)
        assert np.allclose(g.data[1], 0.5, atol=1e-12)
        g.data[1] -= 0.5
        assert np.max(np.abs(g.data)) < 1e-12

    def test_sin_two_phi(self, disk256, ang64):
        sino = sinogram_from(disk256, ang64, lambda p: np.sin(2 * p))
        g = project_minus(sino, 4)
        assert np.allclose(g.data[2], 0.5j, atol=1e-12)
        g.data[2] -= 0.5j
        assert np.max(np.abs(g.data)) < 1e-12

    def test_linearity(self, polybump_sino):
        g1 = project_minus(polybump_sino, 16)
        doubled = Sinogram(
            polybump_sino.boundary,
            polybump_sino.angular,
            2.0 * polybump_sino.data,
            attenuated=False,
            meta={},
        )
        g2 = project_minus(doubled, 16)
        assert np.max(np.abs(g2.data - 2.0 * g1.data)) < 1e-12

    def test_round_trip(self, disk256, ang64):
        rng = np.random.default_rng(3)
        n_modes = 12
        data = rng.standard_normal((n_modes + 1, 256)) + 1j * rng.standard_normal(
            (n_modes + 1, 256)
        )
        data[0] = data[0].real  # zero mode of a real signal is real
        v = ModeTrace(disk256, n_modes, data)
        # g_0 + 2 Re sum_{n>=1} g_{-n} e^{-i n phi} at every node and angle
        kernel = np.exp(-1j * np.outer(np.arange(1, n_modes + 1), ang64.angles))
        vals = np.real(data[0])[:, None] + 2.0 * np.real(data[1:].T @ kernel)
        sino = Sinogram(disk256, ang64, vals, attenuated=False, meta={})
        back = project_minus(sino, n_modes)
        assert np.max(np.abs(back.data - v.data)) < 1e-12

    def test_mode_count_needs_angles(self, disk256):
        sino = sinogram_from(disk256, AngularGrid(16), np.cos)
        with pytest.raises(GridTooCoarse):
            project_minus(sino, 8)  # needs M >= 2N+2 = 18


class TestConvolve:
    def test_delta_shift_on_trace(self, disk256):
        rng = np.random.default_rng(9)
        n_modes = 6
        g = ModeTrace(
            disk256,
            n_modes,
            rng.standard_normal((n_modes + 1, 256))
            + 1j * rng.standard_normal((n_modes + 1, 256)),
        )
        delta1 = np.zeros(n_modes + 1, dtype=complex)
        delta1[1] = 1.0
        shifted = convolve(delta1[:, None], g.data)
        # (a * g)_{-m} = g_{-(m+1)}: left shift, deepest mode drops off
        assert np.max(np.abs(shifted[:-1] - g.data[1:])) < 1e-14
        assert np.max(np.abs(shifted[-1])) == 0.0

    def test_seq_pair_commutative_associative(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        ab = convolve_seq(a, b)
        ba = convolve_seq(b, a)
        assert np.max(np.abs(ab - ba)) < 1e-12
        left = convolve_seq(convolve_seq(a, b), c)
        right = convolve_seq(a, convolve_seq(b, c))
        assert np.max(np.abs(left - right)) < 1e-12

    def test_identity_seq_neutral(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        e = identity_seq(4)
        assert np.max(np.abs(convolve_seq(e, a) - a)) < 1e-15

    def test_convolve_seq_matches_double_loop(self):
        rng = np.random.default_rng(13)
        n, cols = 7, 5
        a = rng.standard_normal((n + 1, cols)) + 1j * rng.standard_normal((n + 1, cols))
        b = rng.standard_normal((n + 1, cols)) + 1j * rng.standard_normal((n + 1, cols))
        got = convolve_seq(a, b)
        ref = np.zeros_like(got)
        for m in range(n + 1):
            for k in range(m + 1):
                ref[m] += a[k] * b[m - k]
        assert np.max(np.abs(got - ref)) < 1e-13

    def test_trace_convolve_matches_double_loop(self, disk256):
        rng = np.random.default_rng(21)
        n_modes = 5
        a = rng.standard_normal(n_modes + 1) + 1j * rng.standard_normal(n_modes + 1)
        g = ModeTrace(
            disk256,
            n_modes,
            rng.standard_normal((n_modes + 1, 256))
            + 1j * rng.standard_normal((n_modes + 1, 256)),
        )
        got = convolve(a[:, None], g.data)
        # (a * g)_{-m} = sum_k a_k g_{-m-k}: indices below -N drop off
        ref = np.zeros_like(g.data)
        for m in range(n_modes + 1):
            for k in range(n_modes + 1 - m):
                ref[m] += a[k] * g.data[m + k]
        assert np.max(np.abs(got - ref)) < 1e-13


class TestNorms:
    def test_constant_row_example(self, disk256):
        data = np.zeros((5, 256), dtype=complex)
        data[3] = 2.0
        v = ModeTrace(disk256, 4, data)
        l11, l12, l1 = weighted_norms(v)
        assert l1 == 2.0
        assert l11 == 6.0
        assert l12 == 18.0

    def test_against_double_loop(self, disk256):
        rng = np.random.default_rng(31)
        data = rng.standard_normal((7, 256)) + 1j * rng.standard_normal((7, 256))
        v = ModeTrace(disk256, 6, data)
        l11, l12, l1 = weighted_norms(v)
        k = np.arange(7)
        ref_l1 = max(np.sum(np.abs(data[:, j])) for j in range(256))
        ref_l11 = max(np.sum(k * np.abs(data[:, j])) for j in range(256))
        ref_l12 = max(np.sum(k ** 2 * np.abs(data[:, j])) for j in range(256))
        assert abs(l1 - ref_l1) < 1e-12
        assert abs(l11 - ref_l11) < 1e-12
        assert abs(l12 - ref_l12) < 1e-12


class TestLemma21:
    def test_ones_example(self):
        lhs1, rhs1, lhs2, rhs2 = lemma21_identity(np.array([1.0, 1.0, 1.0]))
        assert (lhs1, rhs1, lhs2, rhs2) == (10.0, 10.0, 6.0, 6.0)

    def test_random_sequences(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            c = rng.uniform(0.0, 2.0, rng.integers(1, 9))
            lhs1, rhs1, lhs2, rhs2 = lemma21_identity(c)
            scale = max(1.0, abs(rhs1), abs(rhs2))
            assert abs(lhs1 - rhs1) <= 1e-12 * scale
            assert abs(lhs2 - rhs2) <= 1e-12 * scale

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            lemma21_identity(np.array([1.0, -0.5, 1.0]))


class TestGridChecks:
    def test_trace_shape_must_match_boundary(self, disk256):
        with pytest.raises(ValueError):
            ModeTrace(disk256, 4, np.zeros((5, 100), dtype=complex))

    def test_trace_rejects_nonfinite(self, disk256):
        data = np.zeros((5, 256), dtype=complex)
        data[2, 7] = np.nan
        with pytest.raises(ValueError):
            ModeTrace(disk256, 4, data)
