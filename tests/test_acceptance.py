"""Acceptance gate: eight numbered criteria, one test apiece, so a verbose
run prints exactly one pass/fail line per criterion.

1. Finite-difference audit of every differentiable layer and both
   distillation loss terms: 20 random points each, normed rel err < 1e-6,
   whole audit under 60 seconds.
2. Attention fusion against from-the-formula arithmetic at 1e-12, with
   exact convex weights and componentwise bracketing.
3. Distillation algebra: alpha-linearity at 1e-12 with exact endpoints, on
   the scalar reference loss and on the batch loss the student trains on,
   and KL nonnegativity with zero exactly at identical distributions.
4. MFCC frontend against a from-first-principles recomputation at 1e-6,
   tone localization in the mel filterbank, and FIR pass/stop behaviour.
5. Int8 quantization: round-trip error within half a step, fake-quant
   idempotence, and float-vs-quantized prediction agreement >= 95% after
   quantization-aware fine-tuning.
6. Five-seed synthetic experiment: both unimodal teachers capped at 75%
   test accuracy while the fused student averages >= 90%; distillation
   matches or beats plain supervision on at least 3 of 5 seeds; the whole
   experiment finishes inside 10 minutes.
7. Aggregate metrics against a brute-force confusion recount at 1e-9 plus
   the exact F1 harmonic identity.
8. Bytewise reproducibility: two identically configured full runs emit
   identical evaluation files.

Each test also prints a measured one-line summary (visible with -s).
"""

import dataclasses
import math
import time
import types

import numpy as np
import pytest

from distillfuse.audio import (
    MfccConfig,
    WaveForm,
    design_lowpass_fir,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    mfcc_extract,
)
from distillfuse.config import RunConfig
from distillfuse.data import synth_generate
from distillfuse.distill import (
    DistillConfig,
    ce_loss_tensor,
    distill_loss_tensors,
    one_hot,
)
from distillfuse.encoders import (
    MASK_NEG,
    BiLstm,
    EncoderLayer,
    TextEncoder,
    layer_norm,
    linear,
)
from distillfuse.fusion import (
    FusionParams,
    MultiHeadFusion,
    fuse_attention,
    multi_head_fuse,
)
from distillfuse.metrics import compute_metrics
from distillfuse.pipeline import (
    evaluate_model,
    preprocess,
    quantize_pipeline,
    run_full,
    train_audio_teacher,
    train_student,
    train_text_teacher,
)
from distillfuse.quant import calibrate, dequantize, fake_quant, quantize
from distillfuse.tensor import Tensor, clamp_min, softmax, softmax_np

from helpers import check_grads, cross_entropy, kl_divergence, total_loss


# =====================================================================
# criterion 1 -- gradient audit
# =====================================================================


def _case_linear(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(2, 4))
    b = rng.normal(size=2)

    def fn(x_, w_, b_):
        out = linear(x_, w_, b_)
        return (out * out).sum()

    return fn, [x, w, b]


def _case_layer_norm(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 6))
    g = rng.normal(size=6)
    b = rng.normal(size=6)
    proj = rng.normal(size=(2, 6))
    return (
        lambda x_, g_, b_: (layer_norm(x_, g_, b_) * Tensor(proj)).sum(),
        [x, g, b],
    )


def _case_encoder_layer(seed):
    rng = np.random.default_rng(seed)
    layer = EncoderLayer(4, 2, 6, rng=rng)
    mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    add_mask = ((mask - 1.0) * -MASK_NEG)[:, None, None, :]
    x = rng.normal(size=(2, 3, 4)) * 0.5
    proj = rng.normal(size=(2, 3, 4))
    named = layer.named_parameters()
    arrays = [x] + [p.data.copy() for _, p in named]

    def fn(x_, *tensors):
        for (name, _), t in zip(named, tensors):
            setattr(layer, name, t)
        return (layer.forward(x_, add_mask) * Tensor(proj)).sum()

    return fn, arrays


def _case_text_encoder(seed):
    rng = np.random.default_rng(seed)
    enc = TextEncoder(9, d_model=4, n_layers=1, n_heads=2, d_ff=6, max_len=6,
                      lora_rank=1, lora_alpha=4.0, rng=rng)
    # move the adapters off their zero init so their gradients are non-trivial
    enc.layers[0].lora_q.b.data[:] = rng.normal(size=(4, 1)) * 0.3
    enc.layers[0].lora_v.b.data[:] = rng.normal(size=(4, 1)) * 0.3
    ids = np.array([[2, 4, 7, 3], [2, 8, 3, 0]])
    mask = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0]])
    proj = rng.normal(size=(2, 4))
    named = enc.named_parameters()
    arrays = [p.data.copy() for _, p in named]

    def assign(name, value):
        obj = enc
        parts = name.split(".")
        for part in parts[:-1]:
            if part.startswith("layer") and part[5:].isdigit():
                obj = obj.layers[int(part[5:])]
            else:
                obj = getattr(obj, part)
        setattr(obj, parts[-1], value)

    def fn(*tensors):
        for (name, _), t in zip(named, tensors):
            assign(name, t)
        return (enc.forward(ids, mask) * Tensor(proj)).sum()

    return fn, arrays


def _case_bilstm(seed):
    rng = np.random.default_rng(seed)
    model = BiLstm(input_dim=2, hidden_dim=2, rng=rng)
    x = rng.normal(size=(2, 3, 2))
    names = ("wx_f", "wh_f", "b_f", "wx_b", "wh_b", "b_b")
    arrays = [getattr(model, n).data.copy() for n in names]
    proj = rng.normal(size=(2, 4))

    def fn(*tensors):
        for n, t in zip(names, tensors):
            setattr(model, n, t)
        return (model.final_states(x) * Tensor(proj)).sum()

    return fn, arrays


def _case_fusion_single(seed):
    rng = np.random.default_rng(seed)
    p = FusionParams(3, 4, 3, rng=rng)
    p.b_t.data[:] = rng.normal(size=3)
    p.b_a.data[:] = rng.normal(size=3)
    p.b_e.data[:] = rng.normal(size=1)
    x_t = rng.normal(size=(2, 3))
    x_a = rng.normal(size=(2, 4))
    names = ("w_t", "b_t", "w_a", "b_a", "w_e", "b_e")
    arrays = [x_t, x_a] + [getattr(p, n).data.copy() for n in names]
    proj = rng.normal(size=(2, 3))

    def fn(xt_, xa_, *tensors):
        for n, t in zip(names, tensors):
            setattr(p, n, t)
        h_f, _ = fuse_attention(xt_, xa_, p)
        return (h_f * Tensor(proj)).sum()

    return fn, arrays


def _case_fusion_multi(seed):
    rng = np.random.default_rng(seed)
    mp = MultiHeadFusion(2, 3, 2, n_heads=2, rng=rng)
    x_t = rng.normal(size=(2, 2))
    x_a = rng.normal(size=(2, 3))
    named = mp.named_parameters()
    arrays = [x_t, x_a] + [p.data.copy() for _, p in named]
    proj = rng.normal(size=(2, 2))

    def fn(xt_, xa_, *tensors):
        for (name, _), t in zip(named, tensors):
            if name.startswith("head"):
                idx, attr = name.split(".", 1)
                setattr(mp.heads[int(idx[4:])], attr, t)
            else:
                setattr(mp, name, t)
        h_f, _ = multi_head_fuse(xt_, xa_, mp)
        return (h_f * Tensor(proj)).sum()

    return fn, arrays


def _case_classifier_head(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(2, 3))
    b = rng.normal(size=2)

    def fn(x_, w_, b_):
        p = softmax(linear(x_, w_, b_), axis=-1)
        return (clamp_min(p[:, 0], 1e-12).log() * -1.0).sum()

    return fn, [x, w, b]


def _case_kl_term(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(4, 2)) * 2.0
    p_mix = softmax_np(rng.normal(size=(4, 2)) * 2.0)
    y = one_hot(rng.integers(0, 2, size=4))
    cfg = DistillConfig(alpha=1.0, temperature=2.0)
    return (lambda t: distill_loss_tensors(p_mix, t, y, cfg)[0], [logits])


def _case_ce_term(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(4, 2)) * 2.0
    y = one_hot(rng.integers(0, 2, size=4))
    return (lambda t: ce_loss_tensor(t, y), [logits])


_GRADIENT_CASES = [
    ("linear", _case_linear),
    ("layer_norm", _case_layer_norm),
    ("self_attention_block", _case_encoder_layer),
    ("text_encoder", _case_text_encoder),
    ("bilstm", _case_bilstm),
    ("fusion_single", _case_fusion_single),
    ("fusion_multi_head", _case_fusion_multi),
    ("classifier_head", _case_classifier_head),
    ("distill_kl_term", _case_kl_term),
    ("distill_ce_term", _case_ce_term),
]


def test_criterion_1_gradient_audit():
    t0 = time.perf_counter()
    worst = {}
    for idx, (name, case) in enumerate(_GRADIENT_CASES):
        err = 0.0
        for point in range(20):
            fn, arrays = case(1000 * idx + point)
            err = max(err, check_grads(fn, arrays, tol=1e-6))
        worst[name] = err
    elapsed = time.perf_counter() - t0
    overall = max(worst.values())
    assert overall < 1e-6, worst
    assert elapsed < 60.0, f"gradient audit took {elapsed:.1f}s"
    print(f"criterion 1 PASS: {len(_GRADIENT_CASES)} components x 20 points, "
          f"worst rel err {overall:.2e}, {elapsed:.1f}s")


# =====================================================================
# criterion 2 -- fusion against hand arithmetic
# =====================================================================


def _fusion_oracle(x_t, x_a, p):
    """fuse_attention recomputed with plain numpy from the formulas."""
    h_t = x_t @ p.w_t.data.T + p.b_t.data
    h_a = x_a @ p.w_a.data.T + p.b_a.data
    e_t = h_t @ p.w_e.data.T + p.b_e.data
    e_a = h_a @ p.w_e.data.T + p.b_e.data
    m = np.maximum(e_t, e_a)
    z_t = np.exp(e_t - m)
    z_a = np.exp(e_a - m)
    w_t = z_t / (z_t + z_a)
    w_a = z_a / (z_t + z_a)
    return w_t * h_t + w_a * h_a, np.concatenate([w_t, w_a], axis=1), h_t, h_a


def test_criterion_2_fusion_matches_hand_arithmetic():
    # a fully hand-computed scalar instance first
    p = FusionParams(1, 1, 1, rng=np.random.default_rng(0))
    p.w_t.data[:] = [[2.0]]
    p.b_t.data[:] = [0.5]
    p.w_a.data[:] = [[-1.0]]
    p.b_a.data[:] = [0.0]
    p.w_e.data[:] = [[1.0]]
    p.b_e.data[:] = [0.0]
    h_f, w = fuse_attention(np.array([[1.0]]), np.array([[-0.5]]), p)
    # h_t = 2*1 + 0.5 = 2.5, h_a = 0.5; scores equal the h values, so
    # w_text = e^2.5 / (e^2.5 + e^0.5)
    wt = math.exp(2.5) / (math.exp(2.5) + math.exp(0.5))
    assert abs(w.data[0, 0] - wt) < 1e-12
    assert abs(w.data[0, 1] - (1.0 - wt)) < 1e-12
    assert abs(h_f.data[0, 0] - (wt * 2.5 + (1.0 - wt) * 0.5)) < 1e-12

    # 50 random instances with randomized sizes
    worst = 0.0
    for seed in range(300, 350):
        rng = np.random.default_rng(seed)
        d_t, d_a, d_h = (int(v) for v in rng.integers(2, 9, size=3))
        p = FusionParams(d_t, d_a, d_h, rng=rng)
        p.b_t.data[:] = rng.normal(size=d_h)
        p.b_a.data[:] = rng.normal(size=d_h)
        p.b_e.data[:] = rng.normal(size=1)
        x_t = rng.normal(size=(4, d_t))
        x_a = rng.normal(size=(4, d_a))
        h_f, w = fuse_attention(x_t, x_a, p)
        h_ref, w_ref, h_t, h_a = _fusion_oracle(x_t, x_a, p)
        worst = max(worst,
                    float(np.max(np.abs(h_f.data - h_ref))),
                    float(np.max(np.abs(w.data - w_ref))))
        np.testing.assert_allclose(h_f.data, h_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.data, w_ref, rtol=0, atol=1e-12)
        # weights are an exact convex pair ...
        np.testing.assert_allclose(w.data.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(w.data > 0)
        # ... so the fused vector is componentwise between the projections
        assert np.all(h_f.data >= np.minimum(h_t, h_a) - 1e-12)
        assert np.all(h_f.data <= np.maximum(h_t, h_a) + 1e-12)
    print(f"criterion 2 PASS: 50 instances within 1e-12 of the hand "
          f"recomputation (worst {worst:.2e}), weights convex at 1e-12")


# =====================================================================
# criterion 3 -- distillation algebra
# =====================================================================


def _random_distribution(rng, n=2, floor=1e-6):
    p = rng.uniform(floor, 1.0, size=n)
    return p / p.sum()


def test_criterion_3_distillation_algebra():
    rng = np.random.default_rng(42)
    # alpha-linearity: 20 triples x 11-point grid at temperature 2
    for _ in range(20):
        pt = _random_distribution(rng)
        qs = _random_distribution(rng)
        y = np.zeros(2)
        y[int(rng.integers(0, 2))] = 1.0
        kl_ind = 4.0 * kl_divergence(pt, qs)  # T^2 = 4 at temperature 2
        ce_ind = cross_entropy(y, qs)
        for a in np.linspace(0.0, 1.0, 11):
            br = total_loss(pt, qs, y, DistillConfig(alpha=float(a), temperature=2.0))
            assert abs(br.kl_term - kl_ind) < 1e-12
            assert abs(br.ce_term - ce_ind) < 1e-12
            assert abs(br.total - (a * kl_ind + (1.0 - a) * ce_ind)) < 1e-12
        # endpoints are exact, not merely close
        assert total_loss(pt, qs, y, DistillConfig(alpha=0.0, temperature=2.0)).total == ce_ind
        assert total_loss(pt, qs, y, DistillConfig(alpha=1.0, temperature=2.0)).total == kl_ind

    # KL nonnegativity over 1000 pairs, zero exactly when P = Q
    zeros = positives = 0
    for i in range(1000):
        p = _random_distribution(rng)
        q = p.copy() if i % 3 == 0 else _random_distribution(rng)
        v = kl_divergence(p, q)
        assert v >= 0.0
        if np.max(np.abs(p - q)) <= 1e-9:
            assert v == 0.0
            zeros += 1
        else:
            assert v > 0.0
            positives += 1
    assert zeros and positives

    # the same algebra on the batch loss the student trains on, at temperature 2
    logits = rng.normal(size=(8, 2)) * 2.0
    p_mix = np.stack([_random_distribution(rng) for _ in range(8)])
    y = one_hot(rng.integers(0, 2, size=8))
    q_soft, q = softmax_np(logits / 2.0), softmax_np(logits)
    kl_ind = np.mean([4.0 * kl_divergence(p_mix[i], q_soft[i]) for i in range(8)])
    ce_ind = np.mean([cross_entropy(y[i], q[i]) for i in range(8)])
    terms = {}
    for a in np.linspace(0.0, 1.0, 11):
        cfg = DistillConfig(alpha=float(a), temperature=2.0)
        _, br = distill_loss_tensors(p_mix, Tensor(logits), y, cfg)
        kl_t, ce_t = terms.setdefault("kl_ce", (br.kl_term, br.ce_term))
        assert (br.kl_term, br.ce_term) == (kl_t, ce_t)  # the terms do not move with alpha
        assert abs(kl_t - kl_ind) < 1e-12 and abs(ce_t - ce_ind) < 1e-12
        assert abs(br.total - (a * kl_t + (1.0 - a) * ce_t)) < 1e-12
        if a in (0.0, 1.0):
            assert br.total == (ce_t if a == 0.0 else kl_t)
    print(f"criterion 3 PASS: alpha-linearity at 1e-12 with exact endpoints, "
          f"scalar and batch losses; "
          f"KL >= 0 on 1000 pairs ({zeros} exact zeros, {positives} positive)")


# =====================================================================
# criterion 4 -- audio frontend from first principles
# =====================================================================


def _mfcc_brute_force(samples, rate, cfg):
    """Explicit DFT sums, triangle filters from the mel-point formula, and a
    cosine-sum DCT; shares no code with the implementation."""
    n = samples.size
    n_frames = 1 + (n - cfg.n_fft) // cfg.hop
    window = np.hamming(cfg.n_fft)
    n_bins = cfg.n_fft // 2 + 1
    t_idx = np.arange(cfg.n_fft)
    dft = np.exp(-2j * np.pi * np.outer(np.arange(n_bins), t_idx) / cfg.n_fft)
    mels = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    hz = mel_to_hz(mels)
    bin_freqs = np.arange(n_bins) * rate / cfg.n_fft
    out = np.zeros((n_frames, cfg.n_coeffs))
    for fi in range(n_frames):
        x = samples[fi * cfg.hop : fi * cfg.hop + cfg.n_fft] * window
        mag = np.abs(dft @ x)
        mel_e = np.zeros(cfg.n_mels)
        for j in range(cfg.n_mels):
            w = np.minimum(
                (bin_freqs - hz[j]) / (hz[j + 1] - hz[j]),
                (hz[j + 2] - bin_freqs) / (hz[j + 2] - hz[j + 1]),
            )
            mel_e[j] = np.sum(np.maximum(0.0, w) * mag)
        log_e = np.log(np.maximum(mel_e, cfg.log_floor))
        for i in range(cfg.n_coeffs):
            scale = np.sqrt((1.0 if i == 0 else 2.0) / cfg.n_mels)
            basis = np.cos(np.pi * i * (2 * np.arange(cfg.n_mels) + 1) / (2 * cfg.n_mels))
            out[fi, i] = scale * np.sum(basis * log_e)
    return out


def _response_db(taps, freq, rate):
    n = np.arange(taps.size)
    h = np.sum(taps * np.exp(-2j * np.pi * freq * n / rate))
    return 20.0 * np.log10(abs(h))


def test_criterion_4_audio_frontend_first_principles():
    cfg = MfccConfig()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10):
        samples = rng.normal(scale=0.2, size=int(rng.integers(1600, 4000)))
        got = mfcc_extract(WaveForm(samples, 16000), cfg).frames
        want = _mfcc_brute_force(samples, 16000, cfg)
        assert got.shape == want.shape
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-6

    # a 440 Hz tone concentrates in the filter whose center is nearest 440 Hz
    rate = 16000
    t = np.arange(int(rate * 0.2)) / rate
    tone = 0.8 * np.sin(2 * np.pi * 440.0 * t)
    fb = mel_filterbank(cfg, rate)
    frames = np.lib.stride_tricks.sliding_window_view(tone, cfg.n_fft)[:: cfg.hop]
    mag = np.abs(np.fft.rfft(frames * np.hamming(cfg.n_fft), axis=1))
    got_band = int(np.argmax((mag @ fb.T).mean(axis=0)))
    centers = mel_to_hz(np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax),
                                    cfg.n_mels + 2))[1:-1]
    want_band = int(np.argmin(np.abs(centers - 440.0)))
    assert abs(got_band - want_band) <= 1

    # FIR: flat at 1 kHz, at least 20 dB down at 7.5 kHz
    fir = design_lowpass_fir(7000.0, 16000, 101)
    pass_db = _response_db(fir.coefficients, 1000.0, 16000)
    stop_db = _response_db(fir.coefficients, 7500.0, 16000)
    assert abs(pass_db) < 1.0
    assert stop_db <= -20.0
    print(f"criterion 4 PASS: worst MFCC deviation {worst:.2e}; 440 Hz in "
          f"band {got_band} (expected {want_band}); FIR {pass_db:+.3f} dB @ "
          f"1 kHz, {stop_db:.1f} dB @ 7.5 kHz")


# =====================================================================
# criterion 5 -- quantization
# =====================================================================


def test_criterion_5_quantization(tmp_path):
    rng = np.random.default_rng(9)
    worst = 0.0
    for scheme in ("symmetric", "asymmetric"):
        for _ in range(10):
            w = rng.normal(size=(16, 24)) * rng.uniform(0.5, 4.0)
            qp = calibrate(w, scheme)
            err = float(np.max(np.abs(dequantize(quantize(w, qp)) - w)))
            assert err <= qp.scale / 2 + 1e-15, f"{scheme}: {err} > scale/2"
            worst = max(worst, err / (qp.scale / 2))
            fq = fake_quant(Tensor(w), qp)
            again = fake_quant(Tensor(fq.data.copy()), qp)
            np.testing.assert_array_equal(again.data, fq.data)

    # agreement after quantization-aware fine-tuning on a synthetic corpus
    cfg = RunConfig(seed=3, synth_n=120, batch_size=8, epochs_audio=2, epochs_qat=2)
    data_dir = tmp_path / "data"
    features_dir = tmp_path / "features"
    synth_generate(cfg.synth_n, cfg.seed, data_dir, cfg.synth_sample_rate)
    preprocess(cfg, data_dir, features_dir)
    audio_ckpt = train_audio_teacher(cfg, features_dir, tmp_path / "teacher")
    quantize_pipeline(cfg, audio_ckpt, features_dir, tmp_path / "quant")
    text = (tmp_path / "quant" / "quantization.txt").read_text()
    kv = dict(line.split("=", 1) for line in text.splitlines() if line)
    agreement = float(kv["agreement"])
    assert agreement >= 0.95, f"float-vs-quantized agreement {agreement}"
    assert float(kv["storage_ratio"]) == 0.125
    print(f"criterion 5 PASS: round-trip error <= scale/2 (worst ratio "
          f"{worst:.3f}), fake-quant idempotent, agreement {agreement:.3f}, "
          f"storage ratio {kv['storage_ratio']}")


# =====================================================================
# criterion 6 -- five-seed experiment
# =====================================================================

_RECIPE = dict(
    max_len=32,
    batch_size=32,
    epochs_text=6,
    epochs_audio=8,
    epochs_student=15,
    optimizer_student="adam",
    fusion_dim=16,
    fusion_heads=8,
)


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("experiment")
    t0 = time.perf_counter()
    rows = []
    for seed in range(5):
        cfg = RunConfig(seed=seed, **_RECIPE)
        work = root / f"seed{seed}"
        data_dir = work / "data"
        features_dir = work / "features"
        synth_generate(cfg.synth_n, cfg.seed, data_dir, cfg.synth_sample_rate)
        preprocess(cfg, data_dir, features_dir)
        text_ckpt = train_text_teacher(cfg, features_dir, work / "teachers")
        audio_ckpt = train_audio_teacher(cfg, features_dir, work / "teachers")
        text_rep = evaluate_model(cfg, text_ckpt, features_dir, "test", work / "eval-text")
        audio_rep = evaluate_model(cfg, audio_ckpt, features_dir, "test", work / "eval-audio")
        by_alpha = {}
        for alpha in (0.5, 0.0):
            acfg = dataclasses.replace(cfg, alpha=alpha)
            sdir = work / f"student-alpha{alpha:g}"
            ckpt = train_student(acfg, features_dir, text_ckpt, audio_ckpt, sdir)
            rep = evaluate_model(acfg, ckpt, features_dir, "test", sdir / "eval")
            by_alpha[alpha] = rep
        rows.append(dict(
            seed=seed,
            text_acc=text_rep.accuracy,
            audio_acc=audio_rep.accuracy,
            student_acc=by_alpha[0.5].accuracy,
            student_f1=by_alpha[0.5].f1_weighted,
            ce_only_acc=by_alpha[0.0].accuracy,
            ce_only_f1=by_alpha[0.0].f1_weighted,
        ))
    return types.SimpleNamespace(rows=rows, seconds=time.perf_counter() - t0)


def test_criterion_6_five_seed_experiment(experiment):
    rows = experiment.rows
    for r in rows:
        assert r["text_acc"] <= 0.75, f"seed {r['seed']}: text teacher above chance cap ({r['text_acc']})"
        assert r["audio_acc"] <= 0.75, f"seed {r['seed']}: audio teacher above chance cap ({r['audio_acc']})"
    mean_acc = float(np.mean([r["student_acc"] for r in rows]))
    assert mean_acc >= 0.90, f"student mean accuracy {mean_acc}"
    wins = sum(r["student_f1"] >= r["ce_only_f1"] for r in rows)
    assert wins >= 3, f"distilled F1 matched or beat supervised-only on {wins}/5 seeds"
    assert experiment.seconds < 600.0, f"experiment took {experiment.seconds:.0f}s"
    for r in rows:
        print(f"  seed {r['seed']}: text {r['text_acc']:.3f}  audio {r['audio_acc']:.3f}  "
              f"student {r['student_acc']:.3f}/{r['student_f1']:.3f}  "
              f"ce-only {r['ce_only_acc']:.3f}/{r['ce_only_f1']:.3f}")
    print(f"criterion 6 PASS: teachers <= 0.75 on all seeds, student mean "
          f"accuracy {mean_acc:.3f}, distilled F1 >= supervised on {wins}/5 "
          f"seeds, {experiment.seconds:.0f}s")


# =====================================================================
# criterion 7 -- metrics against brute force
# =====================================================================


def _brute_force_metrics(preds, labels):
    preds = list(preds)
    labels = list(labels)
    n = len(labels)
    out = {"accuracy": sum(1 for p, y in zip(preds, labels) if p == y) / n,
           "precision": [], "recall": [], "f1": [], "support": []}
    for c in (0, 1):
        tp = sum(1 for p, y in zip(preds, labels) if p == c and y == c)
        fp = sum(1 for p, y in zip(preds, labels) if p == c and y != c)
        fn = sum(1 for p, y in zip(preds, labels) if p != c and y == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        out["precision"].append(prec)
        out["recall"].append(rec)
        out["f1"].append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        out["support"].append(tp + fn)
    w = [s / n for s in out["support"]]
    for key in ("precision", "recall", "f1"):
        out[key + "_weighted"] = w[0] * out[key][0] + w[1] * out[key][1]
    return out


def test_criterion_7_metrics_against_brute_force():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        preds = rng.integers(0, 2, size=n)
        rep = compute_metrics(preds, labels)
        ref = _brute_force_metrics(preds, labels)
        assert abs(rep.accuracy - ref["accuracy"]) < 1e-9
        for c in (0, 1):
            assert abs(rep.precision[c] - ref["precision"][c]) < 1e-9
            assert abs(rep.recall[c] - ref["recall"][c]) < 1e-9
            assert abs(rep.f1[c] - ref["f1"][c]) < 1e-9
            assert rep.support[c] == ref["support"][c]
            p_, r_ = rep.precision[c], rep.recall[c]
            if p_ + r_ > 0:
                assert abs(rep.f1[c] - 2 * p_ * r_ / (p_ + r_)) < 1e-12
            else:
                assert rep.f1[c] == 0.0
        assert abs(rep.precision_weighted - ref["precision_weighted"]) < 1e-9
        assert abs(rep.recall_weighted - ref["recall_weighted"]) < 1e-9
        assert abs(rep.f1_weighted - ref["f1_weighted"]) < 1e-9
    print("criterion 7 PASS: 100 instances within 1e-9 of brute-force "
          "recounts; F1 harmonic identity at 1e-12")


# =====================================================================
# criterion 8 -- bytewise reproducibility
# =====================================================================


def test_criterion_8_reproducible_artifacts(tmp_path):
    cfg = RunConfig(
        seed=11, synth_n=24, synth_sample_rate=8000,
        max_len=16, target_frames=20,
        d_model=8, n_layers=1, n_heads=2, d_ff=16, lstm_hidden=4,
        lora_rank=2, lora_alpha=8.0, fusion_dim=6, fusion_heads=2,
        batch_size=4, epochs_text=1, epochs_audio=1, epochs_student=1,
        epochs_qat=1, threads=2,
    )
    first = run_full(cfg, tmp_path / "run_a")
    second = run_full(cfg, tmp_path / "run_b")
    compared = 0
    for sub in ("student", "text-teacher", "audio-teacher"):
        for fname in ("metrics.txt", "roc.csv"):
            fa = first["eval_dir"] / sub / fname
            fb = second["eval_dir"] / sub / fname
            assert fa.exists() and fb.exists(), f"{sub}/{fname} missing"
            assert fa.read_bytes() == fb.read_bytes(), \
                f"{sub}/{fname} differs between identically configured runs"
            compared += 1
    assert first["student_report"].accuracy == second["student_report"].accuracy
    print(f"criterion 8 PASS: {compared} evaluation files byte-identical "
          f"across two identically configured runs")
