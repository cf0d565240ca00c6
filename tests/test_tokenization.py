"""Tokenizer contract tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlpack.tokenization import (
    ByteTokenizer,
    ExternalVocabTokenizer,
    TokenizerError,
    TokenizerSpec,
    WhitespaceTokenizer,
    make_tokenizer,
)

# No surrogates, and no "[" so the reserved "[SPLIT]" text cannot be formed.
_plain_text = st.text(
    alphabet=st.characters(exclude_categories=("Cs",), exclude_characters="["),
    max_size=120,
)

# Texts built from words, the delimiter (whole and in halves), ASCII and
# Unicode whitespace, and arbitrary characters.
_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2003\u2028\u2029\u202f\u3000"
_WORDS = ["a", "b", "é", "ab", "日本"]
_delimited_text = st.lists(
    st.one_of(
        st.sampled_from(_WORDS + ["[SPLIT]", "[SPL", "IT]"]),
        st.sampled_from(_WHITESPACE),
        st.text(alphabet=st.characters(exclude_categories=("Cs",)), max_size=4),
    ),
    max_size=30,
).map("".join)

_KINDS = {
    "whitespace": WhitespaceTokenizer,
    "byte": ByteTokenizer,
    "external": lambda: ExternalVocabTokenizer({"<unk>": 1, "a": 2, "b": 3, "é": 4}),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
class TestEveryKind:
    @given(text=_delimited_text)
    def test_count_equals_encode_len(self, kind, text):
        tok = _KINDS[kind]()
        assert tok.count(text) == len(tok.encode(text))

    @given(text=_delimited_text)
    def test_encode_joins_ids_of_pieces_at_delimiters(self, kind, text):
        tok, ref = _KINDS[kind](), _KINDS[kind]()
        expected = []
        for k, part in enumerate(text.split("[SPLIT]")):
            if k:
                expected.append(ref.split_token_id)
            expected += ref.ids(ref.pieces(part))
        assert tok.encode(text) == expected


@given(st.lists(st.sampled_from(_WORDS), max_size=30), st.integers(0, 30))
def test_whitespace_ids_on_first_encounter(words, cut):
    tok = WhitespaceTokenizer()
    first_seen: dict[str, int] = {}
    for word in words:
        first_seen.setdefault(word, len(first_seen) + 1)
    # Split over two calls or made in one, ids follow first encounter.
    assert tok.ids(words[:cut]) + tok.ids(words[cut:]) == [first_seen[w] for w in words]
    assert WhitespaceTokenizer().ids(words) == [first_seen[w] for w in words]


def test_word_new_twice_in_one_call_gets_one_id(whitespace_tokenizer):
    assert whitespace_tokenizer.ids(["known"]) == [1]
    assert whitespace_tokenizer.ids(["x", "known", "x", "y", "x"]) == [2, 1, 2, 3, 2]


@given(st.lists(st.sampled_from(_WORDS), max_size=12))
def test_external_without_unk_names_first_unknown_word(words):
    tok = ExternalVocabTokenizer({"a": 1, "b": 2})
    unknown = [w for w in words if w not in ("a", "b")]
    if not unknown:
        assert tok.ids(words) == [{"a": 1, "b": 2}[w] for w in words]
        return
    for call in (lambda: tok.ids(words), lambda: tok.encode(" ".join(words))):
        with pytest.raises(TokenizerError) as err:
            call()
        assert str(err.value).endswith(repr(unknown[0]))


class TestMakeTokenizer:
    def test_whitespace_reserves_split_id(self):
        tok = make_tokenizer(TokenizerSpec(kind="whitespace"))
        assert tok.split_token_id == 0
        assert tok.encode("[SPLIT]") == [0]

    def test_byte_offset_mapping(self):
        tok = make_tokenizer(TokenizerSpec(kind="byte"))
        assert tok.encode("A") == [0x41 + 1]

    def test_external_missing_file_errors(self, tmp_path):
        spec = TokenizerSpec(kind="external", vocab_source=str(tmp_path / "nope.vocab"))
        with pytest.raises(TokenizerError) as err:
            make_tokenizer(spec)
        assert "nope.vocab" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(TokenizerError):
            make_tokenizer(TokenizerSpec(kind="wordpiece"))

    def test_empty_split_text_rejected(self):
        with pytest.raises(TokenizerError):
            make_tokenizer(TokenizerSpec(split_token_text=""))


@pytest.mark.parametrize("spec, field", [
    (dict(kind="byte", split_token_id=1), "split_token_id"),
    (dict(kind="external", vocab_source="v.vocab", split_token_id=1), "split_token_id"),
    (dict(split_token_id=-1), "split_token_id"),
    (dict(split_token_id=2**32), "split_token_id"),
    (dict(kind="external"), "vocab_source"),
], ids=["byte_id_1", "external_id_1", "id_minus_1", "id_2_32", "external_no_vocab"])
def test_spec_refuses_invalid_fields(spec, field):
    with pytest.raises(TokenizerError) as err:
        TokenizerSpec(**spec)
    assert str(err.value).startswith(f"{field}: ")


class TestWhitespace:
    def test_first_occurrence_ids(self, whitespace_tokenizer):
        assert whitespace_tokenizer.encode("a b a") == [1, 2, 1]

    def test_empty(self, whitespace_tokenizer):
        assert whitespace_tokenizer.encode("") == []

    def test_split_token_is_reserved(self, whitespace_tokenizer):
        assert whitespace_tokenizer.encode("[SPLIT] a") == [0, 1]

    def test_count_collapses_whitespace_runs(self, whitespace_tokenizer):
        assert whitespace_tokenizer.count("x y  z") == 3

    def test_ids_stable_across_repeat_encodes(self, whitespace_tokenizer):
        first = whitespace_tokenizer.encode("alpha beta")
        whitespace_tokenizer.encode("gamma")
        assert whitespace_tokenizer.encode("alpha beta") == first

    def test_distinct_words_distinct_ids(self, whitespace_tokenizer):
        ids = whitespace_tokenizer.encode("q w e r t y")
        assert len(set(ids)) == len(ids)

    @given(_plain_text)
    def test_count_equals_encode_len(self, text):
        tok = WhitespaceTokenizer()
        assert tok.count(text) == len(tok.encode(text))

    @given(_plain_text)
    def test_no_split_id_without_marker(self, text):
        tok = WhitespaceTokenizer()
        assert 0 not in tok.encode(text)

    def test_truncate_is_text_prefix(self, whitespace_tokenizer):
        text = "one  two\tthree four"
        short = whitespace_tokenizer.truncate_to_tokens(text, 2)
        assert text.startswith(short)
        assert whitespace_tokenizer.count(short) == 2
        assert whitespace_tokenizer.truncate_to_tokens(text, 99) == text


class TestByte:
    @given(_plain_text)
    def test_count_equals_encode_len(self, text):
        tok = ByteTokenizer()
        assert tok.count(text) == len(tok.encode(text))

    def test_count_utf8(self):
        assert ByteTokenizer().count("ab") == 2
        assert ByteTokenizer().count("é") == 2  # two UTF-8 bytes

    def test_split_token_round_trip(self):
        tok = ByteTokenizer()
        assert tok.encode("[SPLIT]") == [0]
        assert tok.encode("a[SPLIT]b") == [ord("a") + 1, 0, ord("b") + 1]

    def test_truncate_respects_char_boundaries(self):
        tok = ByteTokenizer()
        short = tok.truncate_to_tokens("aé", 2)  # é needs 2 bytes; only 1 left
        assert short == "a"
        assert tok.count(short) <= 2


class TestExternal:
    def _vocab(self, tmp_path, lines):
        path = tmp_path / "v.vocab"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return TokenizerSpec(kind="external", vocab_source=str(path))

    def test_lookup(self, tmp_path):
        tok = make_tokenizer(self._vocab(tmp_path, ["hello\t5", "world\t9"]))
        assert tok.encode("hello world hello") == [5, 9, 5]

    def test_reserved_id_shifts_vocab(self, tmp_path):
        tok = make_tokenizer(self._vocab(tmp_path, ["a\t0", "b\t1"]))
        assert tok.encode("a b") == [1, 2]
        assert tok.encode("[SPLIT]") == [0]

    def test_unknown_word_without_unk_errors(self, tmp_path):
        tok = make_tokenizer(self._vocab(tmp_path, ["a\t1"]))
        with pytest.raises(TokenizerError) as err:
            tok.encode("missing")
        assert "missing" in str(err.value)

    def test_unknown_word_with_unk(self, tmp_path):
        tok = make_tokenizer(self._vocab(tmp_path, ["a\t1", "<unk>\t7"]))
        assert tok.encode("a zzz") == [1, 7]

    def test_malformed_line_names_file_and_line(self, tmp_path):
        spec = self._vocab(tmp_path, ["a\t1", "broken line"])
        with pytest.raises(TokenizerError) as err:
            make_tokenizer(spec)
        assert "v.vocab:2" in str(err.value)

    def test_line_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "v.vocab"
        path.write_bytes(b"a\t1\n\xff\t2\n")
        with pytest.raises(TokenizerError) as err:
            ExternalVocabTokenizer.from_file(path, "[SPLIT]", 0)
        assert str(err.value).startswith(f"{path}:2: ")

    def test_lines_end_at_newline_only(self, tmp_path):
        # str.splitlines() would also end a line at the vertical tab.
        path = tmp_path / "voc2.txt"
        path.write_bytes(b"a\t1\x0bb\t2\nc\tx\n")
        with pytest.raises(TokenizerError) as err:
            ExternalVocabTokenizer.from_file(path, "[SPLIT]", 0)
        assert str(err.value).startswith(f"{path}:1: non-integer id")

    def test_crlf_line_ends(self, tmp_path):
        path = tmp_path / "v.vocab"
        path.write_bytes(b"a\t1\r\n\r\n#merges\r\nx y\r\n")
        assert ExternalVocabTokenizer.from_file(path, "[SPLIT]", 0).encode("a") == [1]

    def test_merges_section_is_skipped(self, tmp_path):
        tok = make_tokenizer(self._vocab(tmp_path, ["a\t1", "#merges", "x y", "b\t2"]))
        assert tok.encode("a") == [1]
        # Lines after #merges are rules, not vocabulary entries.
        with pytest.raises(TokenizerError):
            tok.encode("b")

    def test_malformed_merge_rule_names_file_and_line(self, tmp_path):
        spec = self._vocab(tmp_path, ["a\t1", "#merges", "x y", "x y z"])
        with pytest.raises(TokenizerError) as err:
            make_tokenizer(spec)
        assert "v.vocab:4" in str(err.value) and "merge rule" in str(err.value)


def test_encode_and_count(whitespace_tokenizer):
    assert whitespace_tokenizer.encode("a b") == [1, 2]
    assert whitespace_tokenizer.count("a b") == 2
