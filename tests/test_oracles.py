import math

import numpy as np
import pytest
from scipy.integrate import quad

from sectionlab.errors import OutOfSupport
from sectionlab.oracles import (
    ball_section_cdf,
    square_chord_density,
)


class TestSquareChordDensity:
    def test_flat_branch(self):
        assert square_chord_density(0.5) == 0.5
        assert square_chord_density(0.0) == 0.5
        assert square_chord_density(1.0) == 0.5

    def test_endpoint_vanishes(self):
        assert square_chord_density(math.sqrt(2.0)) == pytest.approx(0.0, abs=1e-12)

    def test_upper_branch_value(self):
        # 1/(1.44 sqrt(0.44)) - 0.5
        expected = 1.0 / (1.44 * math.sqrt(0.44)) - 0.5
        assert expected == pytest.approx(0.54691, abs=5e-6)
        assert square_chord_density(1.2) == pytest.approx(expected, rel=1e-12)

    def test_out_of_support(self):
        with pytest.raises(OutOfSupport):
            square_chord_density(-0.1)
        with pytest.raises(OutOfSupport):
            square_chord_density(1.5)

    def test_integrates_to_one(self):
        total, err = quad(square_chord_density, 0.0, math.sqrt(2.0),
                          points=[1.0], limit=200)
        assert abs(total - 1.0) < 1e-9

    def test_vectorized(self):
        z = np.array([0.3, 0.9, 1.1, 1.4])
        vals = square_chord_density(z)
        assert vals.shape == (4,)
        assert vals[0] == 0.5


class TestBallSectionCdf:
    def test_endpoints(self):
        assert ball_section_cdf(0.0) == 0.0
        assert ball_section_cdf(math.pi) == pytest.approx(1.0)

    def test_midpoint_inversion(self):
        # area = pi (1 - s^2) at s = 1/2 gives 3 pi / 4
        assert ball_section_cdf(0.75 * math.pi) == pytest.approx(0.5)

    def test_scaling_radius(self):
        assert ball_section_cdf(0.75 * math.pi * 4.0, radius=2.0) == (
            pytest.approx(0.5)
        )

    def test_out_of_support(self):
        with pytest.raises(OutOfSupport):
            ball_section_cdf(-1e-9)
        with pytest.raises(OutOfSupport):
            ball_section_cdf(4.0)
        with pytest.raises(ValueError):
            ball_section_cdf(1.0, radius=0.0)

    def test_monotone_continuous(self):
        a = np.linspace(0.0, math.pi, 10001)
        f = ball_section_cdf(a)
        assert (np.diff(f) >= 0).all()
        # continuous: steps shrink with the grid (derivative is unbounded
        # only at the right endpoint)
        interior = np.diff(f)[a[1:] < 0.95 * math.pi]
        assert interior.max() < 5e-4

    def test_root_scale_convex_near_zero(self):
        # CDF of sqrt(area) should be convex on an initial interval
        z = np.linspace(1e-4, 0.5, 200)
        f = ball_section_cdf(z * z)
        second = f[2:] - 2 * f[1:-1] + f[:-2]
        assert second.min() > -1e-12
