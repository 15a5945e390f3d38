"""Mask construction, normalization, gradients, and export."""

import math

import numpy as np
import pytest

from gmconv import masks
from util import central_diff_scalar


def literal_circular(sigma, k):
    """Independent two-step oracle: evaluate the 1D Gaussian (with its
    prefactor) at each cell's Euclidean distance from the center, then
    divide by the maximum cell. No simplification, no exponent tricks."""
    c = (k - 1) / 2.0
    g = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            d = math.hypot(i - c, j - c)
            g[i, j] = (1.0 / (math.sqrt(2.0 * math.pi) * sigma)) * math.exp(
                -d * d / (2.0 * sigma * sigma)
            )
    return g / g.max()


def literal_elliptic(s1, s2, k):
    """Same idea for the anisotropic case: the full 2D Gaussian density
    with both prefactors, max-normalized afterwards."""
    c = (k - 1) / 2.0
    g = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            x = j - c
            y = i - c
            g[i, j] = (1.0 / (2.0 * math.pi * s1 * s2)) * math.exp(
                -0.5 * (x * x / (s1 * s1) + y * y / (s2 * s2))
            )
    return g / g.max()


class TestCircular:
    def test_matches_literal_two_step_construction(self):
        """Primary oracle: the shipped closed form equals the literal
        density-then-normalize evaluation for a sweep of sigmas and sizes."""
        for k in (1, 2, 3, 4, 5, 7, 9):
            for sigma in (0.3, 0.7, 1.0, 2.5, 5.0, 10.0, 40.0):
                got = masks.circular_values(sigma, k)
                want = literal_circular(sigma, k)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    def test_hand_values_3x3_sigma1(self):
        m = masks.circular_values(1.0, 3)
        assert m[1, 1] == 1.0
        np.testing.assert_allclose(m[0, 1], math.exp(-0.5), rtol=1e-15)
        np.testing.assert_allclose(m[0, 0], math.exp(-1.0), rtol=1e-15)
        # isotropy: all four edge cells equal, all four corners equal
        assert m[0, 1] == m[1, 0] == m[1, 2] == m[2, 1]
        assert m[0, 0] == m[0, 2] == m[2, 0] == m[2, 2]

    def test_center_is_exactly_one_for_odd_k(self):
        for k in (1, 3, 5, 7):
            for sigma in (0.01, 1.0, 5.0, 1e5):
                m = masks.circular_values(sigma, k)
                assert m[k // 2, k // 2] == 1.0
                assert m.max() == 1.0

    def test_values_in_unit_interval_and_positive(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = int(rng.integers(1, 10))
            sigma = float(rng.uniform(0.2, 50.0))
            m = masks.circular_values(sigma, k)
            assert m.shape == (k, k)
            assert np.all(m > 0.0)
            assert np.all(m <= 1.0)
            assert m.max() == 1.0

    def test_even_k_has_four_unit_cells(self):
        """With an even grid the center falls between cells; the four
        nearest cells tie for the maximum and normalize to exactly 1."""
        m = masks.circular_values(1.3, 4)
        ones = np.isclose(m, 1.0, rtol=0, atol=0)
        assert ones.sum() == 4
        assert m[1, 1] == m[1, 2] == m[2, 1] == m[2, 2] == 1.0

    def test_k2_mask_is_all_ones(self):
        np.testing.assert_array_equal(masks.circular_values(0.9, 2), np.ones((2, 2)))

    def test_monotone_in_distance(self):
        m = masks.circular_values(1.7, 7)
        x, y = np.meshgrid(np.arange(7) - 3.0, np.arange(7) - 3.0)
        d2 = x * x + y * y
        order = np.argsort(d2.ravel())
        vals = m.ravel()[order]
        assert np.all(np.diff(vals) <= 1e-15)

    def test_sign_invariance(self):
        for sigma in (0.5, 2.0, 7.7):
            np.testing.assert_array_equal(
                masks.circular_values(sigma, 5), masks.circular_values(-sigma, 5)
            )

    def test_flat_limit_at_sigma_max(self):
        """At the upper clamp the exponent is ~1e-11 at worst for K<=9,
        so every cell is 1 up to that slack: the mask is a no-op."""
        m = masks.circular_values(1e6, 9)
        assert np.all(m >= 1.0 - 1e-10)

    def test_delta_limit_at_sigma_min(self):
        """At the lower clamp the off-center exponent is about -5e5, far
        below the double-precision underflow threshold: off-center cells
        are exactly zero while the center stays exactly one."""
        m = masks.circular_values(1e-3, 5)
        assert m[2, 2] == 1.0
        off = m.copy()
        off[2, 2] = 0.0
        np.testing.assert_array_equal(off, np.zeros((5, 5)))

    def test_clamp_applies_below_and_above(self):
        np.testing.assert_array_equal(
            masks.circular_values(1e-9, 5), masks.circular_values(1e-3, 5)
        )
        np.testing.assert_array_equal(
            masks.circular_values(1e9, 5), masks.circular_values(1e6, 5)
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            masks.circular_values(float("nan"), 3)
        with pytest.raises(ValueError):
            masks.circular_values(float("inf"), 3)
        with pytest.raises(ValueError):
            masks.circular_values(1.0, 0)
        with pytest.raises(ValueError):
            masks.circular_values(1.0, -3)

    def test_kernel_size_must_be_an_integer(self):
        """A fractional size or a bool is no kernel size, not a 3x3 or 1x1
        mask; numpy integer sizes build the same mask as Python ints."""
        for bad in (3.9, 3.0, "3", True, False):
            with pytest.raises(ValueError, match="kernel_size"):
                masks.circular_values(1.0, bad)
            with pytest.raises(ValueError, match="kernel_size"):
                masks.elliptic_values_batch(np.ones(2), np.ones(2), bad)
        for k in (np.int64(3), np.int32(5), np.uint8(4)):
            np.testing.assert_array_equal(
                masks.circular_values(1.5, k), masks.circular_values(1.5, int(k))
            )


class TestCircularGrad:
    def test_matches_central_difference(self):
        """Finite-difference oracle over odd and even grids."""
        for k in (1, 2, 3, 4, 5, 7):
            for sigma in (0.6, 1.0, 3.0, 8.0):
                _, got = masks.circular_grad_values(sigma, k)
                want = central_diff_scalar(
                    lambda s: masks.circular_values(s, k), sigma, h=1e-6
                )
                np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_hand_value_corner(self):
        _, g = masks.circular_grad_values(1.0, 3)
        np.testing.assert_allclose(g[0, 0], 2.0 * math.exp(-1.0), rtol=1e-15)
        assert g[1, 1] == 0.0

    def test_zero_when_clamp_active(self):
        np.testing.assert_array_equal(
            masks.circular_grad_values(1e-4, 5)[1], np.zeros((5, 5))
        )
        np.testing.assert_array_equal(
            masks.circular_grad_values(2e6, 5)[1], np.zeros((5, 5))
        )

    def test_zero_at_clamp_boundary(self):
        """Clamp convention: the derivative is gated to zero at the
        boundary itself, not just beyond it, so a width parked at a clamp
        stays parked. Just inside, the closed form applies."""
        np.testing.assert_array_equal(
            masks.circular_grad_values(masks.SIGMA_MAX, 3)[1], np.zeros((3, 3))
        )
        np.testing.assert_array_equal(
            masks.circular_grad_values(masks.SIGMA_MIN, 3)[1], np.zeros((3, 3))
        )
        inside = np.nextafter(masks.SIGMA_MAX, 0.0)
        _, g = masks.circular_grad_values(inside, 3)
        x, y = np.meshgrid(np.arange(3) - 1.0, np.arange(3) - 1.0)
        d2 = x * x + y * y
        want = masks.circular_values(inside, 3) * d2 / inside**3
        np.testing.assert_array_equal(g, want)
        assert np.any(g != 0.0)

    def test_gated_slopes_are_plus_zero_at_both_clamps(self):
        """At |sigma| = SIGMA_MIN or SIGMA_MAX, of either sign, both width
        slopes of `_gaussian` are +0.0 bit for bit: the gate writes them.
        The closed form would give -0.0 at -SIGMA_MIN, where every m * sq
        is zero (off the center line m underflows), and non-zero values at
        SIGMA_MAX. Just inside SIGMA_MAX the slopes are that closed form."""
        edge = np.array([masks.SIGMA_MIN, -masks.SIGMA_MIN, masks.SIGMA_MAX, -masks.SIGMA_MAX])
        _, g1, g2 = masks._gaussian(edge, edge, 3, grad=True)
        assert g1.tobytes() == g2.tobytes() == bytes(g1.nbytes)
        inside = np.nextafter(np.array([masks.SIGMA_MAX, -masks.SIGMA_MAX]), 0.0)
        m, g1, g2 = masks._gaussian(inside, inside, 3, grad=True)
        sq, cube = (np.arange(3) - 1.0) ** 2, inside[:, None, None] ** 3
        np.testing.assert_array_equal(g1, m * sq / cube)
        np.testing.assert_array_equal(g2, m * sq[:, None] / cube)
        assert np.all(g1[:, :, [0, 2]] != 0.0) and np.all(g2[:, [0, 2]] != 0.0)

    def test_odd_sign_in_sigma(self):
        _, g_pos = masks.circular_grad_values(2.0, 5)
        _, g_neg = masks.circular_grad_values(-2.0, 5)
        np.testing.assert_array_equal(g_pos, -g_neg)


class TestElliptic:
    def test_matches_literal_two_step_construction(self):
        for k in (1, 2, 3, 4, 5, 7):
            for s1, s2 in ((1.0, 1.0), (2.0, 1.0), (0.5, 3.0), (4.0, 0.8)):
                got = masks.elliptic_values(s1, s2, k)
                want = literal_elliptic(s1, s2, k)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    def test_reduces_to_circular_when_sigmas_equal(self):
        """Circular is the elliptic mask with equal widths, bit for bit,
        and its slope is the sum of the two axis slopes. The slope views
        return the very mask the value views do."""
        rng = np.random.default_rng(6)
        for k in (1, 2, 3, 4, 5, 7, 11):
            for sigma in np.concatenate([[0.7, 1.0, 4.2], np.exp(rng.uniform(-8.0, 15.0, 30))]):
                np.testing.assert_array_equal(
                    masks.circular_values(sigma, k), masks.elliptic_values(sigma, sigma, k)
                )
                m, g1, g2 = masks.elliptic_grad_values(sigma, sigma, k)
                mc, gc = masks.circular_grad_values(sigma, k)
                np.testing.assert_array_equal(gc, g1 + g2)
                np.testing.assert_array_equal(m, masks.elliptic_values(sigma, sigma, k))
                np.testing.assert_array_equal(mc, masks.circular_values(sigma, k))

    def test_hand_values_axes(self):
        """sigma1 widens the horizontal axis, sigma2 the vertical one."""
        m = masks.elliptic_values(2.0, 1.0, 3)
        np.testing.assert_allclose(m[1, 0], math.exp(-0.125), rtol=1e-15)
        np.testing.assert_allclose(m[0, 1], math.exp(-0.5), rtol=1e-15)
        np.testing.assert_allclose(m[0, 0], math.exp(-0.625), rtol=1e-15)
        assert m[1, 0] > m[0, 1]

    def test_swap_sigmas_transposes(self):
        m = masks.elliptic_values(3.0, 0.9, 5)
        mt = masks.elliptic_values(0.9, 3.0, 5)
        np.testing.assert_array_equal(m.T, mt)

    def test_grad_matches_central_difference(self):
        for k in (2, 3, 5):
            for s1, s2 in ((1.0, 2.0), (3.0, 0.7)):
                _, g1, g2 = masks.elliptic_grad_values(s1, s2, k)
                w1 = central_diff_scalar(
                    lambda s: masks.elliptic_values(s, s2, k), s1, h=1e-6
                )
                w2 = central_diff_scalar(
                    lambda s: masks.elliptic_values(s1, s, k), s2, h=1e-6
                )
                np.testing.assert_allclose(g1, w1, rtol=1e-6, atol=1e-9)
                np.testing.assert_allclose(g2, w2, rtol=1e-6, atol=1e-9)

    def test_grad_clamp_is_per_axis(self):
        _, g1, g2 = masks.elliptic_grad_values(1e-7, 2.0, 3)
        np.testing.assert_array_equal(g1, np.zeros((3, 3)))
        assert np.any(g2 != 0.0)


class TestBatchVariants:
    # log-uniform widths from below SIGMA_MIN to above SIGMA_MAX
    @staticmethod
    def random_widths(seed, n=40):
        rng = np.random.default_rng(seed)
        return np.exp(rng.uniform(-8.0, 15.0, n)), np.exp(rng.uniform(-8.0, 15.0, n))

    def test_batch_matches_scalar_loop(self):
        """Scalar masks are batches of one, so they agree bit for bit."""
        for k in (1, 2, 3, 4, 5, 7, 11):
            s1, s2 = self.random_widths(7 + k)
            got = masks.elliptic_values_batch(s1, s2, k)
            assert got.shape == (len(s1), k, k)
            for n in range(len(s1)):
                np.testing.assert_array_equal(got[n], masks.elliptic_values(s1[n], s2[n], k))

    def test_batch_grad_matches_scalar_loop(self):
        for k in (1, 2, 3, 4, 5, 7, 11):
            s1, s2 = self.random_widths(8 + k)
            m, g1, g2 = masks.elliptic_grad_batch(s1, s2, k)
            np.testing.assert_array_equal(m, masks.elliptic_values_batch(s1, s2, k))
            for n in range(len(s1)):
                _, w1, w2 = masks.elliptic_grad_values(s1[n], s2[n], k)
                np.testing.assert_array_equal(g1[n], w1)
                np.testing.assert_array_equal(g2[n], w2)

    def test_batch_clamps_elementwise(self):
        got = masks.elliptic_values_batch(
            np.array([1e-9, 2.0]), np.array([2.0, 1e9]), 3
        )
        np.testing.assert_allclose(got[0], masks.elliptic_values(1e-3, 2.0, 3))
        np.testing.assert_allclose(got[1], masks.elliptic_values(2.0, 1e6, 3))


class TestMaskObjects:
    def test_circular_mask_records_clamped_sigma(self):
        m = masks.circular_mask(1e-9, 3)
        assert m.kind == "circular"
        assert m.sigma1 == masks.SIGMA_MIN
        assert m.sigma2 == masks.SIGMA_MIN
        assert m.kernel_size == 3

    def test_elliptic_mask_object(self):
        m = masks.elliptic_mask(2.0, -3.0, 5)
        assert m.kind == "elliptic"
        assert m.sigma1 == 2.0
        assert m.sigma2 == 3.0
        assert m.kernel_size == 5
        np.testing.assert_array_equal(m.values, masks.elliptic_values(2.0, 3.0, 5))


class TestExport:
    def test_csv_roundtrip_is_bit_exact(self, tmp_path):
        """%.17g is enough digits to reconstruct any double exactly."""
        rng = np.random.default_rng(11)
        m = masks.circular_mask(float(rng.uniform(0.4, 9.0)), 7)
        p = tmp_path / "m.csv"
        masks.write_grid_csv(m.values, str(p))
        back = np.loadtxt(str(p), delimiter=",", ndmin=2)
        np.testing.assert_array_equal(back, m.values)

    def test_csv_layout(self, tmp_path):
        m = masks.circular_mask(1.0, 3)
        p = tmp_path / "m.csv"
        masks.write_grid_csv(m.values, str(p))
        lines = p.read_text().splitlines()
        assert len(lines) == 3
        assert all(len(line.split(",")) == 3 for line in lines)
        assert lines[1].split(",")[1] == "1"

    def test_pgm_rejects_nan(self, tmp_path):
        """NaN passes `min < 0 or max > 1`; casting it would write the level
        -9223372036854775808."""
        grid = np.full((3, 3), 0.5)
        grid[1, 1] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            masks.write_grid_pgm(grid, str(tmp_path / "m.pgm"))
        assert not (tmp_path / "m.pgm").exists()

    def test_pgm_format_and_scaling(self, tmp_path):
        m = masks.circular_mask(1.0, 3)
        p = tmp_path / "m.pgm"
        masks.write_grid_pgm(m.values, str(p))
        toks = p.read_text().split()
        assert toks[0] == "P2"
        assert toks[1] == "3" and toks[2] == "3"
        assert toks[3] == "65535"
        pixels = [int(t) for t in toks[4:]]
        assert len(pixels) == 9
        assert pixels[4] == 65535
        assert pixels[1] == round(math.exp(-0.5) * 65535)
        assert pixels[0] == round(math.exp(-1.0) * 65535)
