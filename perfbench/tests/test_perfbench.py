"""Tests of the benchmark's own code: exact counters, span arithmetic, the
tracer's coverage of every wrapped layer, and that tracing leaves the
evaluation files unchanged. Workloads run here on small corpora."""

import concurrent.futures
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from distillfuse import audio, distill, pipeline  # noqa: E402

SMALL = {
    "train-demo": dict(synth_n=32, epochs_text=1, epochs_audio=1, epochs_student=6, batch_size=8),
    "audio-qat": dict(synth_n=24, epochs_audio=1, epochs_qat=1, batch_size=8),
    "screen": dict(synth_n=24, batch_size=8),
}

# The workload on which each layer must record at least one span.
EXERCISED_BY = {
    "tensor.backward": "train-demo",
    "encoders.text_forward": "screen",
    "encoders.bilstm_forward": "audio-qat",
    "fusion.fuse": "train-demo",
    "distill.student_step": "train-demo",
    "distill.loss": "train-demo",
    "distill.ce_loss": "audio-qat",
    "distill.teacher_probs": "train-demo",
    "models.teacher_predict": "train-demo",
    "optim.step": "audio-qat",
    "optim.zero_grad": "audio-qat",
    "quant.fake_quant": "audio-qat",
    "quant.calibrate": "audio-qat",
    "quant.quantize": "audio-qat",
    "audio.read_wav": "screen",
    "audio.resample": "screen",
    "audio.lowpass_filter": "screen",
    "audio.vad_segments": "screen",
    "audio.mfcc_extract": "screen",
    "audio.save_features": "screen",
    "audio.load_features": "screen",
    "text.parse_and_filter_transcript": "screen",
    "text.build_vocab": "screen",
    "text.encode": "screen",
    "data.make_batches": "audio-qat",
    "data.load_dataset": "screen",
    "pipeline.preprocess": "screen",
    "pipeline.train_text_teacher": "train-demo",
    "pipeline.train_audio_teacher": "audio-qat",
    "pipeline.train_student": "train-demo",
    "pipeline.quantize_pipeline": "audio-qat",
    "pipeline.evaluate_model": "screen",
    "pipeline.load_split_examples": "screen",
    "pipeline.validation": "train-demo",
    "checkpoint.save": "audio-qat",
    "checkpoint.load": "screen",
    "metrics.compute_metrics": "screen",
    "metrics.roc_auc": "screen",
    "metrics.emit_report": "screen",
}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One untraced and one traced pass of each workload, on small corpora."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "SETUP_ROUND_S", 0.0)  # one set-up per round
        return {
            name: harness.measure(name, seed=0, seconds=0.0, trace=True,
                                  work=tmp_path_factory.mktemp(name), **over)
            for name, over in SMALL.items()
        }


def test_node_counts_repeat_and_match_the_recorded_values():
    counts = [{m: probes.count_nodes(probes.Probe(seed), call)
               for m, call in probes.NODE_COUNTS.items()} for seed in (0, 0, 3)]
    assert counts[0] == counts[1] == counts[2] == {
        "tensor.nodes.student_step": 2460,
        "tensor.nodes.audio_step": 2175,
        "tensor.nodes.text_step": 132,
        "tensor.nodes.student_infer": 2443,
    }


def test_student_forward_with_ce_loss_is_2450_nodes():
    # The 2,450 quoted for a student step is forward (2,443) plus the 7-node
    # cross-entropy; the distillation step's KL + CE loss records 17 instead.
    probe = probes.Probe(0)
    b = probe.batch

    def forward_ce():
        distill.ce_loss_tensor(probe.student.forward_logits(b.token_ids, b.mask, b.mfcc), probe.y)

    probe.forward_ce = forward_ce
    assert probes.count_nodes(probe, "forward_ce") == 2450


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([(1, 3), (2, 5), (7, 8), (9, 12)], 0, 10) == pytest.approx(6.0)
    assert tracing.covered([], 0, 10) == 0.0


def test_self_time_subtracts_child_cover_across_threads():
    root = tracing.Span("pipeline.preprocess", 0.0, 10.0, thread=1)
    a = tracing.Span("audio.read_wav", 1.0, 3.0, parent=root, thread=2)
    b = tracing.Span("audio.read_wav", 2.0, 5.0, parent=root, thread=3)
    c = tracing.Span("audio.mfcc_extract", 7.0, 8.0, parent=root, thread=2)
    leaf = tracing.Span("tensor.backward", 7.25, 7.75, parent=c, thread=2)
    own = tracing.self_times([root, a, b, c, leaf])
    assert own[id(root)] == pytest.approx(5.0)
    assert own[id(a)] == pytest.approx(2.0)
    assert own[id(c)] == pytest.approx(0.5)
    assert own[id(leaf)] == pytest.approx(0.5)


def test_summary_median_and_tail():
    s = tracing.summary([float(v) for v in range(1, 101)])
    assert (s["n"], s["p50"], s["tail"], s["tail_pct"]) == (100, 50.5, 90.0, 90.0)
    s = tracing.summary([5.0, 1.0, 3.0] + [2.0] * 8)
    assert (s["p50"], s["tail"], s["tail_pct"]) == (2.0, 1.0, pytest.approx(100 / 11))
    assert tracing.summary([1.0, 2.0])["tail"] is None


def test_layer_metrics_on_hand_built_spans():
    pre = tracing.Span("pipeline.preprocess", 0.0, 4.0, thread=1)
    clips = [tracing.Span("audio.mfcc_extract", 0.0, 3.0, parent=pre, thread=t) for t in (2, 3)]
    ev = tracing.Span("pipeline.evaluate_model", 4.0, 6.0, thread=1)
    ev.nodes = 7
    fwd = tracing.Span("encoders.text_forward", 4.5, 5.5, parent=ev, thread=1)
    fwd.nodes = 100
    m = tracing.layer_metrics([pre, *clips, ev, fwd], passes=2)
    assert m["pipeline.preprocess.workers"] == 2
    assert m["pipeline.preprocess.busy_ratio"] == pytest.approx(6.0 / 8.0)
    assert m["pipeline.preprocess.s"] == pytest.approx(0.5)
    assert m["tensor.nodes.inference"] == pytest.approx(53.5)
    assert m["pipeline.evaluate_model.s"] == pytest.approx(0.5)
    assert m["audio.mfcc_extract.calls"] == 1


def test_every_layer_records_spans_on_its_workload(traced_runs):
    names = {span for _, _, span in tracing.LAYERS + tracing.OPTIONAL_LAYERS}
    assert set(EXERCISED_BY) == names
    for span, workload in EXERCISED_BY.items():
        rec = traced_runs[workload]
        removed = {n for m, a, n in tracing.OPTIONAL_LAYERS if f"{m}.{a}" in rec["missing"]}
        recorded = {s.name for s in rec["tracer"].spans}
        assert span in recorded or span in removed, f"{span} recorded nothing on {workload}"


def test_pool_workers_parent_to_preprocess(traced_runs):
    spans = traced_runs["screen"]["tracer"].spans
    clips = [s for s in spans if s.name == "audio.mfcc_extract"]
    assert clips and all(s.parent is not None and s.parent.name == "pipeline.preprocess"
                         for s in clips)


def test_tracer_restores_every_patch(traced_runs):
    from distillfuse import tensor

    assert pipeline.mfcc_extract is audio.mfcc_extract
    assert not hasattr(audio.mfcc_extract, "__wrapped__")
    assert not hasattr(tensor._make, "__wrapped__")
    assert not hasattr(tensor.Tensor.backward, "__wrapped__")
    assert pipeline.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor


def test_traced_pass_writes_the_same_files(traced_runs):
    for name, rec in traced_runs.items():
        untraced, traced = rec["passes"][0], rec["traced"][0]
        assert untraced.digests and untraced.digests == traced.digests, name
        assert not untraced.errors and not traced.errors, (name, untraced.errors, traced.errors)


def test_harness_reports_env_and_outcome(traced_runs):
    report = harness.outcome(traced_runs["train-demo"])
    assert report["failed"] == 0 and report["digests_agree"]
    assert report["ops_attempted"] == 14
    env = harness.environment(0)
    assert env["nproc"] >= 1 and env["blas"] and "OPENBLAS_NUM_THREADS" in env["blas_threads"]
