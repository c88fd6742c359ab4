"""Dataset plumbing tests: label parsing, manifest assembly with skip
warnings, deterministic splits, batching, and the synthetic corpus contract
(balanced labels, both-cue XOR structure, byte-identical regeneration).
"""

import logging

import numpy as np
import pytest

from distillfuse.data import (
    SPLIT_RATIOS,
    Example,
    load_dataset,
    make_batches,
    rng_for,
    synth_generate,
)
from distillfuse.text import parse_and_filter_transcript


def _write_min_participant(d, pid):
    (d / f"{pid}_TRANSCRIPT.csv").write_text(
        "start_time\tstop_time\tspeaker\tvalue\n"
        "0.0\t1.0\tParticipant\thello there\n"
    )
    import wave

    with wave.open(str(d / f"{pid}_AUDIO.wav"), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(8000)
        w.writeframes(b"\x00\x00" * 800)


class TestRngFor:
    def test_deterministic_and_tag_separated(self):
        a = rng_for(7, "split").uniform(size=5)
        b = rng_for(7, "split").uniform(size=5)
        c = rng_for(7, "synth").uniform(size=5)
        d = rng_for(8, "split").uniform(size=5)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)
        assert np.any(a != d)


class TestLoadDataset:
    def _corpus(self, d, n=6):
        rows = ["Participant_ID,PHQ8_Binary"]
        for k in range(n):
            pid = 100 + k
            _write_min_participant(d, pid)
            rows.append(f"{pid},{k % 2}")
        (d / "labels.csv").write_text("\n".join(rows) + "\n")

    def test_complete_corpus_loaded(self, tmp_path):
        self._corpus(tmp_path)
        m = load_dataset(tmp_path)
        assert len(m.entries) == 6
        assert sorted(e.participant_id for e in m.entries) == list(range(100, 106))
        assert {e.label for e in m.entries} == {0, 1}
        assert set(m.split_of.values()) <= {"train", "validation", "test"}
        assert len(m.split_of) == 6

    def test_missing_labels_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="labels"):
            load_dataset(tmp_path)

    def test_header_enforced(self, tmp_path):
        (tmp_path / "labels.csv").write_text("pid,label\n1,0\n")
        with pytest.raises(ValueError, match="header"):
            load_dataset(tmp_path)

    def test_bad_label_rows(self, tmp_path):
        base = "Participant_ID,PHQ8_Binary\n"
        for bad, msg in ((base + "1,2\n", "0 or 1"),
                         (base + "1,x\n", "non-integer"),
                         (base + "1,0,9\n", "2 comma-separated")):
            (tmp_path / "labels.csv").write_text(bad)
            with pytest.raises(ValueError, match=msg):
                load_dataset(tmp_path)

    def test_incomplete_participants_skipped_with_warning(self, tmp_path, caplog):
        self._corpus(tmp_path, n=4)
        (tmp_path / "101_AUDIO.wav").unlink()
        (tmp_path / "102_TRANSCRIPT.csv").unlink()
        # an extra transcript on disk with no label row
        _write_min_participant(tmp_path, 999)
        with caplog.at_level(logging.WARNING, logger="distillfuse.data"):
            m = load_dataset(tmp_path)
        assert sorted(e.participant_id for e in m.entries) == [100, 103]
        text = caplog.text
        assert "101" in text and "audio" in text
        assert "102" in text and "transcript" in text
        assert "999" in text and "label" in text

    def test_all_incomplete_is_an_error(self, tmp_path):
        (tmp_path / "labels.csv").write_text("Participant_ID,PHQ8_Binary\n1,0\n")
        with pytest.raises(ValueError, match="no complete participants"):
            load_dataset(tmp_path)

    def test_split_deterministic_and_seed_sensitive(self, tmp_path):
        self._corpus(tmp_path, n=20)
        m1 = load_dataset(tmp_path, seed=3)
        m2 = load_dataset(tmp_path, seed=3)
        m3 = load_dataset(tmp_path, seed=4)
        assert m1.split_of == m2.split_of
        assert m1.split_of != m3.split_of

    def test_split_sizes_rounded(self, tmp_path):
        self._corpus(tmp_path, n=20)
        m = load_dataset(tmp_path)
        splits = list(m.split_of.values())
        sizes = {s: splits.count(s) for s in ("train", "validation", "test")}
        assert sizes["train"] == int(round(SPLIT_RATIOS[0] * 20))
        assert sizes["validation"] == int(round(SPLIT_RATIOS[1] * 20))
        assert sum(sizes.values()) == 20


def _example(pid, label, L=4, T=3, C=2):
    rng = np.random.default_rng(pid)
    return Example(
        participant_id=pid,
        token_ids=rng.integers(0, 10, size=L),
        mask=np.ones(L),
        mfcc=rng.normal(size=(T, C)),
        label=label,
    )


class TestMakeBatches:
    def test_shapes_and_remainder(self):
        examples = [_example(i, i % 2) for i in range(7)]
        batches = make_batches(examples, 3)
        assert [b.labels.size for b in batches] == [3, 3, 1]
        b = batches[0]
        assert b.token_ids.shape == (3, 4)
        assert b.mask.shape == (3, 4)
        assert b.mfcc.shape == (3, 3, 2)
        assert b.ids == (0, 1, 2)

    def test_order_preserved_without_rng(self):
        examples = [_example(i, 0) for i in range(5)]
        flat = [pid for b in make_batches(examples, 2) for pid in b.ids]
        assert flat == [0, 1, 2, 3, 4]

    def test_shuffle_is_seeded_permutation(self):
        examples = [_example(i, 0) for i in range(10)]
        f1 = [pid for b in make_batches(examples, 4, np.random.default_rng(5))
              for pid in b.ids]
        f2 = [pid for b in make_batches(examples, 4, np.random.default_rng(5))
              for pid in b.ids]
        assert f1 == f2
        assert sorted(f1) == list(range(10))
        assert f1 != list(range(10))  # rng(5) on 10 items does permute

    def test_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            make_batches([_example(0, 0)], 0)
        with pytest.raises(ValueError, match="no examples"):
            make_batches([], 2)


class TestSynthGenerate:
    def test_file_inventory_and_balance(self, tmp_path):
        m = synth_generate(24, seed=1, out_dir=tmp_path)
        assert len(m.entries) == 24
        labels = [e.label for e in m.entries]
        assert abs(sum(labels) - 12) <= 1
        for e in m.entries:
            assert e.transcript_path.exists()
            assert e.audio_path.exists()
        assert (tmp_path / "labels.csv").exists()

    def test_minimum_size_enforced(self, tmp_path):
        with pytest.raises(ValueError, match="at least 20"):
            synth_generate(10, seed=0, out_dir=tmp_path)

    def test_regeneration_byte_identical(self, tmp_path):
        synth_generate(20, seed=9, out_dir=tmp_path / "a")
        synth_generate(20, seed=9, out_dir=tmp_path / "b")
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_different_seeds_differ(self, tmp_path):
        m1 = synth_generate(20, seed=1, out_dir=tmp_path / "a")
        m2 = synth_generate(20, seed=2, out_dir=tmp_path / "b")
        t1 = m1.entries[0].transcript_path.read_bytes()
        t2 = m2.entries[0].transcript_path.read_bytes()
        assert t1 != t2

    def test_text_cue_alone_carries_no_label_signal(self, tmp_path):
        # the cue word set a participant draws from must be (near) independent
        # of the label: the best text-only rule is the majority class
        from distillfuse.data import TEXT_CUE_WORDS

        m = synth_generate(200, seed=3, out_dir=tmp_path)
        cue_by_label = {0: [], 1: []}
        for e in m.entries:
            text = parse_and_filter_transcript(e.transcript_path.read_text())
            words = set(text.split())
            hits0 = len(words & set(TEXT_CUE_WORDS[0]))
            hits1 = len(words & set(TEXT_CUE_WORDS[1]))
            assert (hits0 > 0) != (hits1 > 0)  # exactly one cue set present
            cue_by_label[e.label].append(1 if hits1 else 0)
        # P(cue=1 | label) should hover near 0.5 for both labels
        for label in (0, 1):
            rate = np.mean(cue_by_label[label])
            assert 0.35 < rate < 0.65

    def test_audio_cue_is_xor_of_text_cue_and_label(self, tmp_path):
        # dominant tone frequency identifies the audio cue; together with the
        # text cue it must reconstruct the label exactly
        from distillfuse.audio import read_wav
        from distillfuse.data import TEXT_CUE_WORDS

        m = synth_generate(20, seed=5, out_dir=tmp_path)
        for e in m.entries:
            text = parse_and_filter_transcript(e.transcript_path.read_text())
            c_text = 1 if set(text.split()) & set(TEXT_CUE_WORDS[1]) else 0
            wav = read_wav(e.audio_path)
            spec = np.abs(np.fft.rfft(wav.samples))
            freqs = np.fft.rfftfreq(wav.samples.size, 1.0 / wav.sample_rate)
            dom = freqs[np.argmax(spec)]
            c_audio = 0 if dom < 1000.0 else 1
            assert (c_text ^ c_audio) == e.label

    def test_interviewer_prompts_mention_both_cue_sets(self, tmp_path):
        # the distractor property the text pipeline must survive: interviewer
        # turns contain words from both cue vocabularies
        from distillfuse.data import INTERVIEWER_PROMPTS, TEXT_CUE_WORDS

        prompt_words = set(" ".join(INTERVIEWER_PROMPTS).split())
        assert prompt_words & set(TEXT_CUE_WORDS[0])
        assert prompt_words & set(TEXT_CUE_WORDS[1])

    def test_custom_sample_rate(self, tmp_path):
        from distillfuse.audio import read_wav

        m = synth_generate(20, seed=7, out_dir=tmp_path, sample_rate=16000)
        wav = read_wav(m.entries[0].audio_path)
        assert wav.sample_rate == 16000
