"""Packing fixtures, invariants, and oracle equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlpack.alignment import ArticlePair, PairId
from xlpack.packing import (
    EN_FIRST,
    L_FIRST,
    PackConfig,
    PackTally,
    direction_for,
    pack_pair,
    paragraphize,
    split_paragraphs,
)
from xlpack.tokenization import ByteTokenizer, ExternalVocabTokenizer, WhitespaceTokenizer

from .oracles import reference_pack_pair, render_segments


class TestSplitParagraphs:
    def test_basic(self):
        assert split_paragraphs("a b\n\nc") == ["a b", "c"]

    def test_all_empty_pieces_dropped(self):
        assert split_paragraphs("\n\n\n\n") == []

    def test_no_delimiter(self):
        assert split_paragraphs("x") == ["x"]

    def test_newline_runs_are_one_boundary(self):
        assert split_paragraphs("a\n\n\nb") == ["a", "b"]
        assert split_paragraphs("a\n\n\n\nb") == ["a", "b"]

    def test_pieces_trimmed(self):
        assert split_paragraphs("  a  \n\n  b  ") == ["a", "b"]


def _pair(text_en, text_l, title_en="Cat", title_l="Gato", lang="es"):
    return ArticlePair(PairId(10, 100), title_en, title_l, text_en, text_l, lang)


def _oracle_len(tokenizer, ctx):
    """Independent length check: count tokens of the fully rendered string."""
    return tokenizer.count(render_segments(
        [(s.lang, s.kind, s.text) for s in ctx.segments], tokenizer.split_token_text
    ))


class TestPackPairFixtures:
    def test_single_context_n16(self, whitespace_tokenizer):
        pair = _pair("a b c\n\nd e", "x y z w\n\nv u")
        ctxs = pack_pair(pair, whitespace_tokenizer, PackConfig(n_budget=16), EN_FIRST)
        assert len(ctxs) == 1
        assert ctxs[0].token_len == 14
        assert ctxs[0].token_len == _oracle_len(whitespace_tokenizer, ctxs[0])
        assert [s.text for s in ctxs[0].segments] == [
            "Cat", "a b c", "d e", "Gato", "x y z w", "v u",
        ]

    def test_two_contexts_n10(self, whitespace_tokenizer):
        pair = _pair("a b c\n\nd e", "x y z w\n\nv u")
        ctxs = pack_pair(pair, whitespace_tokenizer, PackConfig(n_budget=10), EN_FIRST)
        assert [c.token_len for c in ctxs] == [10, 7]
        assert [c.token_len for c in ctxs] == [
            _oracle_len(whitespace_tokenizer, c) for c in ctxs
        ]
        assert [s.text for s in ctxs[0].segments] == ["Cat", "a b c", "Gato", "x y z w"]
        assert [s.text for s in ctxs[1].segments] == ["Cat", "d e", "Gato", "v u"]
        assert [c.seq_index for c in ctxs] == [0, 1]

    def test_exhaustion_continues_single_side(self, whitespace_tokenizer):
        pair = _pair("a", "x\n\ny z", title_en="A", title_l="B")
        ctxs = pack_pair(pair, whitespace_tokenizer, PackConfig(n_budget=10), EN_FIRST)
        assert len(ctxs) == 1
        assert ctxs[0].token_len == 7 == _oracle_len(whitespace_tokenizer, ctxs[0])
        assert [s.text for s in ctxs[0].segments] == ["A", "a", "B", "x", "y z"]

    def test_degenerate_sides_produce_nothing(self, whitespace_tokenizer):
        tally = PackTally()
        assert pack_pair(_pair("", "x"), whitespace_tokenizer,
                         PackConfig(n_budget=16), EN_FIRST, tally) == []
        assert tally.degenerate_pairs == 1

    def test_l_first_swaps_blocks(self, whitespace_tokenizer):
        pair = _pair("a", "x")
        (ctx,) = pack_pair(pair, whitespace_tokenizer, PackConfig(n_budget=16), L_FIRST)
        assert [s.lang for s in ctx.segments] == ["es", "es", "en", "en"]
        assert ctx.direction == L_FIRST

    def test_no_repeat_titles(self, whitespace_tokenizer):
        pair = _pair("a b c\n\nd e", "x y z w\n\nv u")
        cfg = PackConfig(n_budget=10, repeat_titles=False)
        ctxs = pack_pair(pair, whitespace_tokenizer, cfg, EN_FIRST)
        assert [s.kind for s in ctxs[0].segments][:1] == ["title"]
        assert all(s.kind == "paragraph" for s in ctxs[1].segments)

    def test_oversize_truncated_alone(self, whitespace_tokenizer):
        long_para = " ".join(f"w{k}" for k in range(30))
        pair = _pair(long_para, "x", title_en="T", title_l="U")
        tally = PackTally()
        ctxs = pack_pair(pair, whitespace_tokenizer, PackConfig(n_budget=8), EN_FIRST, tally)
        assert tally.truncated_paragraphs == 1
        oversized = [c for c in ctxs if len(c.segments) == 1]
        assert len(oversized) == 1
        (big,) = oversized
        assert big.token_len <= 8
        assert long_para.startswith(big.segments[0].text)

    def test_oversize_skipped_when_truncation_disabled(self, whitespace_tokenizer):
        long_para = " ".join(f"w{k}" for k in range(30))
        pair = _pair(long_para, "x", title_en="T", title_l="U")
        tally = PackTally()
        cfg = PackConfig(n_budget=8, truncate_oversize=False)
        ctxs = pack_pair(pair, whitespace_tokenizer, cfg, EN_FIRST, tally)
        assert tally.oversize_skipped == 1
        texts = [s.text for c in ctxs for s in c.segments]
        assert long_para not in texts

    def test_split_marker_scrubbed_from_text(self, whitespace_tokenizer):
        pair = _pair("evil [SPLIT] text", "x")
        tally = PackTally()
        (ctx,) = pack_pair(pair, whitespace_tokenizer, PackConfig(n_budget=32),
                           EN_FIRST, tally)
        assert tally.split_markers_scrubbed == 1
        ids, _ = ctx.encode(whitespace_tokenizer)
        assert ids[-1] == 0 and 0 not in ids[:-1]

    def test_given_target_side_packs_alike_and_counts_its_markers(self, whitespace_tokenizer):
        pair = _pair("a b\n\nc", "x [SPLIT] y\n\nz w", title_l="Ga[SPLIT]to")
        cfg = PackConfig(n_budget=10)
        made, given = PackTally(), PackTally()
        expected = pack_pair(pair, whitespace_tokenizer, cfg, L_FIRST, made)
        art_l = paragraphize(pair.title_l, pair.text_l, pair.lang_l, whitespace_tokenizer)
        assert art_l.markers_scrubbed == 2
        for _ in range(2):  # reused, its markers count for each pair
            actual = pack_pair(pair, whitespace_tokenizer, cfg, L_FIRST, given, art_l)
            assert [c.segments for c in actual] == [c.segments for c in expected]
            assert [c.token_len for c in actual] == [c.token_len for c in expected]
        assert made.split_markers_scrubbed == 2 and given.split_markers_scrubbed == 4


# --- randomized invariants -------------------------------------------------

_WORDS = [f"w{k}" for k in range(40)]
# Multi-byte characters and the delimiter text, which pack scrubs.
_RICH_WORDS = _WORDS[:8] + ["ñu", "日本語", "a\u00a0b", "[SPLIT]", "x[SPLIT]y"]

KINDS = ["whitespace", "byte", "external"]


def fresh_tokenizer(kind):
    if kind == "whitespace":
        return WhitespaceTokenizer()
    if kind == "byte":
        return ByteTokenizer()
    # Half the words are known; the rest map to <unk>.
    vocab = {"<unk>": 1, **{word: k + 2 for k, word in enumerate(_RICH_WORDS[::2])}}
    return ExternalVocabTokenizer(vocab)


@st.composite
def random_pairs(draw, words=_WORDS):
    paragraph = st.lists(st.sampled_from(words), min_size=1, max_size=8).map(" ".join)
    article_text = st.lists(paragraph, min_size=1, max_size=8).map("\n\n".join)
    return ArticlePair(
        pair=PairId(draw(st.integers(0, 999)), draw(st.integers(1000, 1999))),
        title_en=draw(paragraph),
        title_l=draw(paragraph),
        text_en=draw(article_text),
        text_l=draw(article_text),
        lang_l="xx",
    )


def check_invariants(pair, ctxs, cfg, tokenizer, tally):
    n = cfg.n_budget
    for ctx in ctxs:
        # Budget, including the terminal split token.
        assert ctx.token_len <= n
        ids, _ = ctx.encode(tokenizer)
        assert len(ids) == ctx.token_len
        assert ids[-1] == tokenizer.split_token_id
        assert tokenizer.split_token_id not in ids[:-1]
        # Language-block ordering.
        langs = [s.lang for s in ctx.segments]
        first_lang = langs[0]
        if any(l != first_lang for l in langs):
            switch = next(k for k, l in enumerate(langs) if l != first_lang)
            assert all(l == first_lang for l in langs[:switch])
            assert all(l != first_lang for l in langs[switch:])
        if ctx.direction == EN_FIRST and len({s.lang for s in ctx.segments}) == 2:
            assert langs[0] == "en"
    # Order preservation / losslessness per language.
    for lang, source_text in (("en", pair.text_en), ("xx", pair.text_l)):
        expected = split_paragraphs(source_text)
        emitted = [
            s.text
            for ctx in ctxs
            for s in ctx.segments
            if s.lang == lang and s.kind == "paragraph"
        ]
        if cfg.truncate_oversize:
            assert len(emitted) == len(expected)
            for original, got in zip(expected, emitted):
                if original != got:
                    assert original.startswith(got)  # truncation is a prefix
        else:
            # Skips allowed (oversize), but never reorder or duplicate.
            it = iter(expected)
            for got in emitted:
                assert got in it  # advances `it`: emitted is a subsequence
    # Title placement under the default config.
    if cfg.repeat_titles and cfg.truncate_oversize:
        for ctx in ctxs:
            if len(ctx.segments) > 1:
                assert ctx.segments[0].kind == "title"


@given(pair=random_pairs(), n=st.sampled_from([8, 16, 64]), kind=st.sampled_from(KINDS))
@settings(max_examples=150, deadline=None)
def test_invariants_random(pair, n, kind):
    tokenizer = fresh_tokenizer(kind)
    cfg = PackConfig(n_budget=n)
    tally = PackTally()
    ctxs = pack_pair(pair, tokenizer, cfg, EN_FIRST, tally)
    check_invariants(pair, ctxs, cfg, tokenizer, tally)


@given(pair=random_pairs(), n=st.integers(4, 32),
       direction=st.sampled_from([EN_FIRST, L_FIRST]),
       repeat_titles=st.booleans(), truncate=st.booleans(), kind=st.sampled_from(KINDS))
@settings(max_examples=200, deadline=None)
def test_oracle_equivalence_random(pair, n, direction, repeat_titles, truncate, kind):
    tokenizer = fresh_tokenizer(kind)
    cfg = PackConfig(n_budget=n, repeat_titles=repeat_titles, truncate_oversize=truncate)
    actual = pack_pair(pair, tokenizer, cfg, direction)
    expected = reference_pack_pair(pair, tokenizer, cfg, direction)
    assert [([tuple(s) for s in c.segments], c.token_len) for c in actual] == [
        (segs, length) for segs, length in expected
    ]


@pytest.mark.parametrize("kind", KINDS)
@given(pair=random_pairs(_RICH_WORDS), n=st.sampled_from([4, 8, 16, 64, 4096]),
       direction=st.sampled_from([EN_FIRST, L_FIRST]),
       repeat_titles=st.booleans(), truncate=st.booleans())
@settings(max_examples=100, deadline=None)
def test_span_encode_matches_rendered_text(kind, pair, n, direction, repeat_titles, truncate):
    """A context's ids, mapped from title pieces and flat paragraph slices,
    are the ids of its rendered text under a fresh tokenizer of the same kind
    (the whitespace kind assigns ids in the same order in both)."""
    tok_a, tok_b = fresh_tokenizer(kind), fresh_tokenizer(kind)
    cfg = PackConfig(n_budget=n, repeat_titles=repeat_titles, truncate_oversize=truncate)
    for ctx in pack_pair(pair, tok_a, cfg, direction):
        ids, per_language = ctx.encode(tok_a)
        assert ids == tok_b.encode(ctx.rendered_text(tok_b.split_token_text))
        assert len(ids) == ctx.token_len <= n
        assert sum(per_language.values()) == ctx.token_len - 1


class TestPackCorpus:
    def _pack(self, count, tokenizer, cfg):
        """Contexts of `count` pairs in order, each pair in its configured
        direction, as stage_pack packs them."""
        pairs = [
            ArticlePair(PairId(k, 1000 + k), "T", "U", f"a{k} b\n\nc d", f"x{k}\n\ny", "xx")
            for k in range(count)
        ]
        return [ctx for pair in pairs
                for ctx in pack_pair(pair, tokenizer, cfg, direction_for(pair.pair, cfg))]

    def test_en_first_policy(self, whitespace_tokenizer):
        cfg = PackConfig(n_budget=64, direction_policy=EN_FIRST)
        ctxs = self._pack(3, whitespace_tokenizer, cfg)
        assert ctxs and all(c.direction == EN_FIRST for c in ctxs)

    def test_mix_deterministic(self, whitespace_tokenizer):
        cfg = PackConfig(n_budget=64, direction_policy="mix", seed=5)
        first = [c.direction for c in
                 self._pack(50, whitespace_tokenizer, cfg)]
        second = [c.direction for c in
                  self._pack(50, WhitespaceTokenizer(), cfg)]
        assert first == second
        assert len(set(first)) == 2  # both directions appear

    def test_mix_direction_is_per_pair(self):
        cfg = PackConfig(n_budget=64, direction_policy="mix", seed=9)
        a = direction_for(PairId(1, 2), cfg)
        assert direction_for(PairId(1, 2), cfg) == a

    def test_emission_order(self, whitespace_tokenizer):
        cfg = PackConfig(n_budget=8)
        ctxs = self._pack(3, whitespace_tokenizer, cfg)
        keys = [(c.pair.id_l, c.seq_index) for c in ctxs]
        assert keys == sorted(keys)


def test_pack_config_validation():
    with pytest.raises(ValueError):
        PackConfig(n_budget=3)
    with pytest.raises(ValueError):
        PackConfig(mix_ratio=1.5)
