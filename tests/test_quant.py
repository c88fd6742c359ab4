"""8-bit quantization tests: calibration constants, banker's rounding,
round-trip error bounds, straight-through gradients, and storage size.
"""

import weakref

import numpy as np
import pytest

from distillfuse.quant import (
    QuantParams,
    QuantizedMatrix,
    calibrate,
    dequantize,
    fake_quant,
    quantize,
)
from distillfuse.tensor import Tensor
from helpers import tape_node


class TestCalibrate:
    def test_symmetric_scale_hand_value(self):
        w = np.array([[1.0, -2.54], [0.3, 0.0]])
        p = calibrate(w, "symmetric")
        assert p.scale == 2.54 / 127.0  # exactly 0.02
        assert p.zero_point == 0
        assert p.int_range == (-127, 127)

    def test_asymmetric_scale_and_zero_point(self):
        w = np.array([-1.0, 0.0, 3.0])
        p = calibrate(w, "asymmetric")
        assert p.scale == 4.0 / 255.0
        assert p.zero_point == int(np.round(1.0 / (4.0 / 255.0)))  # 64
        assert p.int_range == (0, 255)

    def test_all_zero_matrix_calibrates_to_unit_scale(self):
        for scheme in ("symmetric", "asymmetric"):
            p = calibrate(np.zeros((3, 3)), scheme)
            assert p.scale == 1.0
            qm = quantize(np.zeros((3, 3)), p)
            np.testing.assert_array_equal(dequantize(qm), np.zeros((3, 3)))

    def test_constant_matrix_asymmetric(self):
        p = calibrate(np.full((2, 2), 5.0), "asymmetric")
        assert p.scale == 1.0
        assert p.zero_point == 0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            calibrate(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="NaN|Inf"):
            calibrate(np.array([1.0, np.inf]))

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            calibrate(np.ones(3), "ternary")

    def test_params_validation(self):
        with pytest.raises(ValueError, match="scale"):
            QuantParams(0.0, 0, "symmetric")
        with pytest.raises(ValueError, match="scheme"):
            QuantParams(1.0, 0, "int4")
        for scale in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="scale"):
                QuantParams(scale, 0, "symmetric")
        for zp, scheme in ((-128, "symmetric"), (128, "symmetric"), (2**62, "symmetric"),
                           (-1, "asymmetric"), (256, "asymmetric")):
            with pytest.raises(ValueError, match="zero point"):
                QuantParams(0.5, zp, scheme)
        assert QuantParams(0.5, -127, "symmetric").zero_point == -127
        assert QuantParams(0.5, 255, "asymmetric").zero_point == 255


class TestQuantizeRoundTrip:
    def test_round_half_even(self):
        # scale 1, zero point 0: values at .5 boundaries must round to even
        p = QuantParams(1.0, 0, "symmetric")
        q = quantize(np.array([0.5, 1.5, 2.5, -0.5, -1.5]), p)
        np.testing.assert_array_equal(q.values, [0, 2, 2, 0, -2])

    def test_round_trip_error_within_half_scale(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            w = rng.normal(size=(16, 12)) * rng.uniform(0.1, 10)
            for scheme in ("symmetric", "asymmetric"):
                p = calibrate(w, scheme)
                err = np.abs(dequantize(quantize(w, p)) - w)
                assert err.max() <= p.scale / 2 + 1e-15

    def test_extremes_map_to_range_ends(self):
        w = np.array([-3.0, 0.0, 3.0])
        qs = quantize(w, calibrate(w, "symmetric"))
        assert qs.values[0] == -127 and qs.values[2] == 127
        qa = quantize(w, calibrate(w, "asymmetric"))
        assert qa.values[0] == 0 and qa.values[2] == 255

    def test_clipping_out_of_range_values(self):
        p = QuantParams(0.01, 0, "symmetric")
        q = quantize(np.array([100.0, -100.0]), p)
        np.testing.assert_array_equal(q.values, [127, -127])

    def test_dtypes(self):
        w = np.linspace(-1, 1, 7)
        assert quantize(w, calibrate(w, "symmetric")).values.dtype == np.int8
        assert quantize(w, calibrate(w, "asymmetric")).values.dtype == np.uint8

    def test_zero_maps_to_zero_point(self):
        w = np.array([-0.8, 0.0, 0.5])
        for scheme in ("symmetric", "asymmetric"):
            p = calibrate(w, scheme)
            qm = quantize(w, p)
            assert qm.values[1] == p.zero_point

    def test_storage_one_byte_per_entry(self):
        w = np.random.default_rng(0).normal(size=(32, 48))
        qm = quantize(w, calibrate(w))
        assert qm.nbytes == 32 * 48
        assert qm.nbytes * 8 == w.astype(np.float64).nbytes
        assert qm.nbytes < w.nbytes / 4


class TestFakeQuant:
    def test_matches_quantize_dequantize(self):
        rng = np.random.default_rng(1)
        for scheme in ("symmetric", "asymmetric"):
            w = rng.normal(size=(8, 5))
            p = calibrate(w, scheme)
            fq = fake_quant(Tensor(w), p).data
            np.testing.assert_array_equal(fq, dequantize(quantize(w, p)))

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(2)
        for scheme in ("symmetric", "asymmetric"):
            w = rng.normal(size=(10, 10)) * 3
            p = calibrate(w, scheme)
            once = fake_quant(Tensor(w), p).data
            twice = fake_quant(Tensor(once), p).data
            np.testing.assert_array_equal(once, twice)

    def test_straight_through_gradient_inside_range(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        p = calibrate(w.data)  # by construction nothing clips
        upstream = rng.normal(size=(4, 4))
        (fake_quant(w, p) * Tensor(upstream)).sum().backward()
        np.testing.assert_array_equal(w.grad, upstream)

    def test_gradient_zero_where_clipped(self):
        p = QuantParams(0.1, 0, "symmetric")  # clip at +-12.7
        w = Tensor(np.array([0.5, 20.0, -20.0, 1.0]), requires_grad=True)
        fake_quant(w, p).sum().backward()
        np.testing.assert_array_equal(w.grad, [1.0, 0.0, 0.0, 1.0])

    def test_boundary_integer_not_clipped(self):
        # exactly 12.7 rounds to 127: inside the range, gradient passes
        p = QuantParams(0.1, 0, "symmetric")
        w = Tensor(np.array([12.7]), requires_grad=True)
        out = fake_quant(w, p)
        out.sum().backward()
        np.testing.assert_allclose(out.data, [12.7], atol=1e-12)
        np.testing.assert_array_equal(w.grad, [1.0])

    def test_asymmetric_straight_through(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.uniform(-1, 2, size=(3, 3)), requires_grad=True)
        p = calibrate(w.data, "asymmetric")
        fake_quant(w, p).sum().backward()
        np.testing.assert_array_equal(w.grad, np.ones((3, 3)))

    def test_keeps_only_its_inside_mask(self):
        w = Tensor(np.array([0.5, 20.0, -20.0, 1.0]), requires_grad=True)
        y = w * 1.0
        out = fake_quant(y, QuantParams(0.1, 0, "symmetric"))
        freed = [weakref.ref(y.data), weakref.ref(out.data)]
        loss = out.sum()
        node = tape_node(loss)._parents[0]
        del y, out
        assert [ref() for ref in freed] == [None, None]
        saved = [c.cell_contents for c in node._backward.__closure__]
        assert [a.dtype for a in saved if isinstance(a, np.ndarray)] == [np.bool_]
        loss.backward()
        np.testing.assert_array_equal(w.grad, [1.0, 0.0, 0.0, 1.0])

    def test_quantization_error_bounded_in_training_loop(self):
        # a few gradient steps through fake_quant stay numerically sane
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        target = rng.normal(size=(6, 6))
        for _ in range(60):
            p = calibrate(w.data)
            diff = fake_quant(w, p) - Tensor(target)
            loss = (diff * diff).sum()
            if w.grad is not None:
                w.grad[...] = 0.0
            loss.backward()
            w.data -= 0.25 * w.grad
        err = np.abs(w.data - target).max()
        final_scale = calibrate(w.data).scale
        assert err <= final_scale  # converged to within one quantization step
