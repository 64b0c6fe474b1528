import numpy as np
import pytest
import scipy.stats

import sectionlab.validation as validation
from sectionlab.geometry import builtin_body
from sectionlab.oracles import ball_section_cdf
from sectionlab.rng import RngStream
from sectionlab.sampling import sample_iur_sections
from sectionlab.validation import (
    check_brunn_concavity,
    check_inclusion_bound,
    check_section_law,
    check_section_oracle,
    ks_two_sample,
    ks_vs_cdf,
    run_shape_checks,
)


class TestKsHelpers:
    def test_two_sample_matches_scipy(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal(500)
        y = gen.standard_normal(700) + 0.1
        ours = ks_two_sample(x, y)
        ref = scipy.stats.ks_2samp(x, y).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_identical_samples(self):
        x = np.array([1.0, 2.0, 3.0])
        assert ks_two_sample(x, x) == 0.0

    def test_vs_cdf_matches_scipy(self):
        gen = np.random.default_rng(1)
        x = gen.uniform(0, 1, 400)
        ours = ks_vs_cdf(x, lambda t: np.clip(t, 0, 1))
        ref = scipy.stats.kstest(x, "uniform").statistic
        assert ours == pytest.approx(ref, abs=1e-12)


class TestChecks:
    def test_ball_law_small(self):
        ball = builtin_body("ball")
        sample = sample_iur_sections(ball, 100_000, RngStream(0))
        result = check_section_law(sample, ball_section_cdf)
        assert result.passed, result.line()

    def test_brunn(self, dodecahedron):
        result = check_brunn_concavity(dodecahedron, seed=2)
        assert result.passed, result.line()

    def test_oracle_small(self, random_hull20):
        result = check_section_oracle(random_hull20, n_planes=500, seed=3)
        assert result.passed, result.line()

    def test_inclusion_small(self):
        result = check_inclusion_bound(n=50_000, seed=1, slack=0.02)
        assert result.passed, result.line()

    def test_line_format(self):
        ball = builtin_body("ball")
        sample = sample_iur_sections(ball, 10_000, RngStream(0))
        result = check_section_law(sample, ball_section_cdf)
        line = result.line()
        assert line.startswith(("PASS", "FAIL"))
        assert "statistic=" in line


class TestShapeChecks:
    @pytest.mark.parametrize("shape", ["square", "cube"])
    def test_each_stream_drawn_once(self, monkeypatch, shape):
        """One sample of the body's n sections, one base sample per trial
        and one per transformed copy: no (body, stream) pair twice."""
        calls = []

        def spy(body, n, rng, workers=1):
            calls.append((body, rng))
            return sample_iur_sections(body, n, rng, workers=workers)

        monkeypatch.setattr(validation, "sample_iur_sections", spy)
        trials = 2
        results = run_shape_checks(builtin_body(shape), 20_000, 4,
                                   trials=trials)
        assert all(r.passed for r in results), [r.line() for r in results]
        keys = [(id(body), rng) for body, rng in calls]  # bodies held alive
        assert len(set(keys)) == len(keys)
        assert len(calls) == 1 + 4 * trials

    @pytest.mark.parametrize("shape,has_law", [("square", True),
                                               ("ball", True),
                                               ("cube", False)])
    def test_section_law_where_closed_form(self, shape, has_law):
        names = [r.name for r in run_shape_checks(builtin_body(shape), 5000,
                                                  2, trials=1)]
        assert ("section_law" in names) == has_law
        if shape == "ball":
            assert names == ["section_law"]
