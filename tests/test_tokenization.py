"""Tokenizer contract tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlpack.tokenization import (
    ByteTokenizer,
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


class TestMakeTokenizer:
    def test_whitespace_reserves_split_id(self):
        tok = make_tokenizer(TokenizerSpec(kind="whitespace"))
        assert tok.split_token_id == 0
        assert tok.encode("[SPLIT]").ids == [0]

    def test_byte_offset_mapping(self):
        tok = make_tokenizer(TokenizerSpec(kind="byte"))
        assert tok.encode("A").ids == [0x41 + 1]

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


class TestWhitespace:
    def test_first_occurrence_ids(self, whitespace_tokenizer):
        assert whitespace_tokenizer.encode("a b a").ids == [1, 2, 1]

    def test_empty(self, whitespace_tokenizer):
        assert whitespace_tokenizer.encode("").ids == []

    def test_split_token_is_reserved(self, whitespace_tokenizer):
        assert whitespace_tokenizer.encode("[SPLIT] a").ids == [0, 1]

    def test_count_collapses_whitespace_runs(self, whitespace_tokenizer):
        assert whitespace_tokenizer.count("x y  z") == 3

    def test_ids_stable_across_repeat_encodes(self, whitespace_tokenizer):
        first = whitespace_tokenizer.encode("alpha beta").ids
        whitespace_tokenizer.encode("gamma")
        assert whitespace_tokenizer.encode("alpha beta").ids == first

    def test_distinct_words_distinct_ids(self, whitespace_tokenizer):
        ids = whitespace_tokenizer.encode("q w e r t y").ids
        assert len(set(ids)) == len(ids)

    @given(_plain_text)
    def test_count_equals_encode_len(self, text):
        tok = WhitespaceTokenizer()
        assert tok.count(text) == len(tok.encode(text).ids)

    @given(_plain_text)
    def test_no_split_id_without_marker(self, text):
        tok = WhitespaceTokenizer()
        assert 0 not in tok.encode(text).ids

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
        assert tok.count(text) == len(tok.encode(text).ids)

    def test_count_utf8(self):
        assert ByteTokenizer().count("ab") == 2
        assert ByteTokenizer().count("é") == 2  # two UTF-8 bytes

    def test_split_token_round_trip(self):
        tok = ByteTokenizer()
        assert tok.encode("[SPLIT]").ids == [0]
        assert tok.encode("a[SPLIT]b").ids == [ord("a") + 1, 0, ord("b") + 1]

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
        assert tok.encode("hello world hello").ids == [5, 9, 5]

    def test_reserved_id_shifts_vocab(self, tmp_path):
        tok = make_tokenizer(self._vocab(tmp_path, ["a\t0", "b\t1"]))
        assert tok.encode("a b").ids == [1, 2]
        assert tok.encode("[SPLIT]").ids == [0]

    def test_unknown_word_without_unk_errors(self, tmp_path):
        tok = make_tokenizer(self._vocab(tmp_path, ["a\t1"]))
        with pytest.raises(TokenizerError) as err:
            tok.encode("missing")
        assert "missing" in str(err.value)

    def test_unknown_word_with_unk(self, tmp_path):
        tok = make_tokenizer(self._vocab(tmp_path, ["a\t1", "<unk>\t7"]))
        assert tok.encode("a zzz").ids == [1, 7]

    def test_malformed_line_names_file_and_line(self, tmp_path):
        spec = self._vocab(tmp_path, ["a\t1", "broken line"])
        with pytest.raises(TokenizerError) as err:
            make_tokenizer(spec)
        assert "v.vocab:2" in str(err.value)

    def test_merges_section_is_skipped(self, tmp_path):
        tok = make_tokenizer(self._vocab(tmp_path, ["a\t1", "#merges", "x y", "b\t2"]))
        assert tok.encode("a").ids == [1]
        # Lines after #merges are rules, not vocabulary entries.
        with pytest.raises(TokenizerError):
            tok.encode("b")

    def test_malformed_merge_rule_names_file_and_line(self, tmp_path):
        spec = self._vocab(tmp_path, ["a\t1", "#merges", "x y", "x y z"])
        with pytest.raises(TokenizerError) as err:
            make_tokenizer(spec)
        assert "v.vocab:4" in str(err.value) and "merge rule" in str(err.value)


def test_encode_and_count(whitespace_tokenizer):
    seq = whitespace_tokenizer.encode("a b")
    assert seq.ids == [1, 2]
    assert seq.source_len_chars == 3
    assert whitespace_tokenizer.count("a b") == 2
