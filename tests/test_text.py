"""Transcript parsing, speaker filtering, vocabulary construction, and
fixed-length encoding."""

import numpy as np
import pytest

from distillfuse.text import (
    CLS_TOKEN,
    PAD_TOKEN,
    SEP_TOKEN,
    TranscriptParseError,
    UNK_TOKEN,
    build_vocab,
    encode,
    load_vocab,
    parse_and_filter_transcript,
    save_vocab,
    tokenize,
)

HEADER = "start_time\tstop_time\tspeaker\tvalue"


def _doc(*rows):
    return "\n".join([HEADER, *rows])


# ------------------------------------------------------------- parsing


def test_parse_basic_transcript():
    doc = _doc("0.0\t1.5\tEllie\thow are you", "2.0\t4.0\tParticipant\tpretty tired")
    assert parse_and_filter_transcript(doc) == "pretty tired"


def test_parse_tolerates_crlf_and_blank_lines():
    doc = HEADER + "\r\n\r\n0.0\t1.0\tParticipant\tokay\r\n\r\n"
    assert parse_and_filter_transcript(doc) == "okay"


def test_parse_missing_header():
    with pytest.raises(TranscriptParseError, match="line 1"):
        parse_and_filter_transcript("0.0\t1.0\tEllie\thi")
    with pytest.raises(TranscriptParseError, match="line 1"):
        parse_and_filter_transcript("")


def test_parse_wrong_field_count_names_line():
    doc = _doc("0.0\t1.0\tEllie\thi", "2.0\t3.0\tno text field")
    with pytest.raises(TranscriptParseError, match="line 3"):
        parse_and_filter_transcript(doc)


def test_parse_non_numeric_timestamp_names_line():
    doc = _doc("zero\t1.0\tEllie\thi")
    with pytest.raises(TranscriptParseError, match="line 2"):
        parse_and_filter_transcript(doc)


def test_parse_stop_before_start_rejected():
    doc = _doc("5.0\t1.0\tEllie\thi")
    with pytest.raises(TranscriptParseError, match="precedes"):
        parse_and_filter_transcript(doc)


def test_parse_empty_text_field_allowed():
    doc = _doc("0.0\t1.0\tParticipant\t", "1.0\t2.0\tParticipant\tafter")
    assert parse_and_filter_transcript(doc) == "after"


# ------------------------------------------------------------- merging


def test_merge_drops_interviewer_case_insensitive():
    doc = _doc(
        "0.0\t1.0\tELLIE\tquestion one",
        "1.0\t2.0\tParticipant\tanswer one",
        "2.0\t3.0\tellie\tquestion two",
        "3.0\t4.0\tParticipant\tanswer two",
    )
    assert parse_and_filter_transcript(doc) == "answer one answer two"


def test_merge_sorts_by_start_time():
    doc = _doc("5.0\t6.0\tParticipant\tlater", "0.0\t1.0\tParticipant\tearlier")
    assert parse_and_filter_transcript(doc) == "earlier later"


def test_merge_stable_on_equal_start_times():
    doc = _doc(
        "1.0\t2.0\tParticipant\tfirst in file",
        "1.0\t2.0\tParticipant\tsecond in file",
    )
    assert parse_and_filter_transcript(doc) == "first in file second in file"


def test_merge_skips_whitespace_only_text():
    doc = _doc("0.0\t1.0\tParticipant\t  ", "1.0\t2.0\tParticipant\t real words ")
    assert parse_and_filter_transcript(doc) == "real words"


def test_merge_custom_interviewer_name():
    doc = _doc("0.0\t1.0\tInterviewer\tq", "1.0\t2.0\tSubject\ta")
    assert parse_and_filter_transcript(doc, interviewer="interviewer") == "a"
    assert parse_and_filter_transcript(doc) == "q a"


def test_parse_and_filter_end_to_end():
    doc = _doc(
        "0.0\t1.0\tEllie\thow did you sleep",
        "1.5\t2.5\tParticipant\tNot Great",
        "3.0\t4.0\tParticipant\thonestly",
    )
    assert parse_and_filter_transcript(doc) == "Not Great honestly"


# ------------------------------------------------------------- tokenize


def test_tokenize_lowercases_and_splits_whitespace():
    assert tokenize("Hello   WORLD\tnew\nline") == ["hello", "world", "new", "line"]
    assert tokenize("") == []


# ------------------------------------------------------------- vocabulary


def test_vocab_starts_with_specials():
    v = build_vocab(["a b c"])
    assert v.id_to_token[:4] == [PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN]
    assert (v.pad_id, v.unk_id, v.cls_id, v.sep_id) == (0, 1, 2, 3)


def test_vocab_orders_by_count_then_alphabetically():
    v = build_vocab(["b b b a a c", "c"])
    # b:3, a:2, c:2 -> b first, then a before c on the tie
    assert v.id_to_token[4:] == ["b", "a", "c"]


def test_vocab_min_count_filters():
    v = build_vocab(["a a b"], min_count=2)
    assert "a" in v.token_to_id
    assert "b" not in v.token_to_id
    assert v.lookup("b") == v.unk_id


def test_vocab_ignores_special_lookalikes_in_corpus():
    v = build_vocab([f"{PAD_TOKEN} {CLS_TOKEN} word"])
    assert v.id_to_token.count(PAD_TOKEN) == 1
    assert v.id_to_token.count(CLS_TOKEN) == 1
    assert "word" in v.token_to_id


def test_vocab_rejects_bad_construction():
    with pytest.raises(ValueError):
        build_vocab(["a"], min_count=0)


def test_vocab_lookup_falls_back_to_unk():
    v = build_vocab(["known"])
    assert v.lookup("known") == 4
    assert v.lookup("unknown") == v.unk_id


def test_vocab_deterministic_across_document_order():
    a = build_vocab(["x y", "z z"])
    b = build_vocab(["z z", "x y"])
    assert a.id_to_token == b.id_to_token


# ------------------------------------------------------------- encoding


def test_encode_layout_and_mask():
    v = build_vocab(["alpha beta gamma"])
    ids, mask = encode("alpha beta", v, max_len=6)
    assert ids.dtype == np.int64
    assert list(ids) == [v.cls_id, v.lookup("alpha"), v.lookup("beta"), v.sep_id, 0, 0]
    np.testing.assert_array_equal(mask, [1, 1, 1, 1, 0, 0])


def test_encode_truncates_body_keeping_terminator():
    v = build_vocab(["a b c d e f"])
    ids, mask = encode("a b c d e f", v, max_len=5)
    assert ids[0] == v.cls_id
    assert ids[4] == v.sep_id
    assert list(ids[1:4]) == [v.lookup("a"), v.lookup("b"), v.lookup("c")]
    np.testing.assert_array_equal(mask, np.ones(5))


def test_encode_unknown_words_map_to_unk():
    v = build_vocab(["hello"])
    ids, _ = encode("hello stranger", v, max_len=8)
    assert list(ids[:4]) == [v.cls_id, v.lookup("hello"), v.unk_id, v.sep_id]


def test_encode_empty_text():
    v = build_vocab(["word"])
    ids, mask = encode("", v, max_len=4)
    assert list(ids) == [v.cls_id, v.sep_id, 0, 0]
    np.testing.assert_array_equal(mask, [1, 1, 0, 0])


def test_encode_max_len_lower_bound():
    v = build_vocab(["a"])
    with pytest.raises(ValueError):
        encode("a", v, max_len=2)


# ------------------------------------------------------------- vocab files


def test_vocab_file_roundtrip(tmp_path):
    v = build_vocab(["the quick brown fox the the quick"])
    path = tmp_path / "vocab.txt"
    save_vocab(path, v)
    back = load_vocab(path)
    assert back.id_to_token == v.id_to_token
    assert back.size == v.size


def test_vocab_file_is_one_token_per_line(tmp_path):
    v = build_vocab(["x y"])
    path = tmp_path / "vocab.txt"
    save_vocab(path, v)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == v.id_to_token


@pytest.mark.parametrize("lines, lineno, message", [
    ([], 1, "expected special token '<pad>', got end of file"),
    (["<pad>", "<unk>", "<cls>"], 4, "expected special token '<sep>', got end of file"),
    (["<pad>", "<cls>", "<unk>", "<sep>"], 2, "expected special token '<unk>', got '<cls>'"),
    (["<pad>", "<unk>", "<cls>", "<sep>", "a", "b", "a"], 7,
     "duplicate token 'a' (first on line 5)"),
    (["<pad>", "<unk>", "<cls>", "<sep>", "<unk>"], 5,
     "duplicate token '<unk>' (first on line 2)"),
])
def test_malformed_vocab_file_names_file_and_line(tmp_path, lines, lineno, message):
    import re

    path = tmp_path / "vocab.txt"
    path.write_text("".join(tok + "\n" for tok in lines), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: {message}")):
        load_vocab(path)
