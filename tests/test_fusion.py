import numpy as np
import pytest

from sceneparse import fusion
from sceneparse.errors import ConfigError, ShapeError


def fuse_loops(prob_rows, weights):
    """Direct weighted-average oracle."""
    num = np.zeros(len(prob_rows[0]))
    den = 0.0
    for p, w in zip(prob_rows, weights):
        num += w * np.asarray(p)
        den += w
    return num / den


class TestCheckWeights:
    def test_accepts_finite_positive(self):
        w = fusion.check_weights([0.25, 0.5, 1], 3, "weights")
        assert w.dtype == np.float64
        assert w.tolist() == [0.25, 0.5, 1.0]

    @pytest.mark.parametrize(
        "weights",
        [(0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (np.nan, 1.0, 1.0), (np.inf, 1.0, 1.0), (1e308, 1e308, 1e308)],
    )
    def test_rejects_bad_weight(self, weights):
        with pytest.raises(ConfigError):
            fusion.check_weights(weights, 3, "weights")

    @pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 1.0, 1.0, 1.0), (), ("a", 1.0, 1.0)])
    def test_rejects_wrong_count_or_type(self, weights):
        with pytest.raises(ConfigError):
            fusion.check_weights(weights, 3, "weights")


class TestFuse:
    def test_hand_value(self):
        # unit vectors under the default weights: shallow scales pick class 0,
        # the deep scale picks class 1
        probs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = fusion.fuse(probs, (0.25, 0.5, 1.0))
        assert out[0] == pytest.approx(0.42857, abs=1e-5)
        assert out[1] == pytest.approx(0.57142, abs=1e-5)
        assert int(np.argmax(out)) == 1

    def test_matches_loop_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            s = int(rng.integers(1, 5))
            rows = np.stack([rng.dirichlet(np.ones(n)) for _ in range(s)])
            weights = rng.random(s) + 0.1
            got = fusion.fuse(rows, weights)
            want = fuse_loops(rows, weights)
            assert np.allclose(got, want, atol=1e-12)
            assert int(np.argmax(got)) == int(np.argmax(want))

    def test_output_on_simplex(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 12))
            rows = np.stack([rng.dirichlet(np.ones(n)) for _ in range(3)])
            out = fusion.fuse(rows, fusion.DEFAULT_SCALE_WEIGHTS)
            assert abs(out.sum() - 1.0) <= 1e-9
            assert (out >= 0).all()

    def test_argmax_invariant_under_weight_rescale(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 8))
            rows = np.stack([rng.dirichlet(np.ones(n)) for _ in range(3)])
            c = float(rng.random() * 99 + 0.01)
            base = fusion.fuse(rows, fusion.DEFAULT_SCALE_WEIGHTS)
            scaled = fusion.fuse(rows, [w * c for w in fusion.DEFAULT_SCALE_WEIGHTS])
            assert int(np.argmax(base)) == int(np.argmax(scaled))

    def test_tie_takes_lowest_index(self):
        assert int(np.argmax(fusion.fuse(np.array([[0.5, 0.5]]), [1.0]))) == 0

    def test_single_scale_passthrough(self, rng):
        p = rng.dirichlet(np.ones(4))
        out = fusion.fuse(p[None], [0.7])
        assert np.allclose(out, p, atol=1e-15)

    @pytest.mark.parametrize("shape,weights", [((3, 2), (0.5, 0.5)), ((2,), (1.0,)), ((4, 3, 2), (1.0, 1.0))])
    def test_weight_count_mismatch(self, shape, weights):
        with pytest.raises(ShapeError):
            fusion.fuse(np.ones(shape), weights)


class TestFuseProbRows:
    def test_matches_fuse(self, rng):
        # a [B, S, N] stack fuses row by row, bit for bit
        rows = np.stack([np.stack([rng.dirichlet(np.ones(5)) for _ in range(3)]) for _ in range(7)])
        w = np.asarray(fusion.DEFAULT_SCALE_WEIGHTS)
        got = fusion.fuse(rows, w)
        assert got.shape == (7, 5)
        for b in range(7):
            assert got[b].tobytes() == fusion.fuse(rows[b], w).tobytes()
            assert np.allclose(got[b], fuse_loops(rows[b], w), atol=1e-15)
