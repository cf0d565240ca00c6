"""Pair-map construction and article joining."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlpack.alignment import (
    AlignmentFilters,
    AlignTally,
    ArticleStore,
    PairId,
    build_pair_map,
    join_articles,
    load_pair_map,
    save_pair_map,
)
from xlpack.dump_ingest import LangLink, PageRecord
from xlpack.synth import write_articles_jsonl


def _page(pid, title, ns=0, redirect=False):
    return PageRecord(pid, ns, title, redirect)


def _link(from_id, lang, title):
    return LangLink(from_id, lang, title)


class TestBuildPairMap:
    def test_single_forward_link(self):
        pairs = build_pair_map(
            [_link(10, "en", "A")], [_page(100, "A")], [], []
        )
        assert pairs == {PairId(10, 100)}

    def test_blank_title_removed(self):
        assert build_pair_map([_link(10, "en", "")], [_page(100, "A")], [], []) == set()
        assert build_pair_map([_link(10, "en", "   ")], [_page(100, "A")], [], []) == set()

    def test_union_with_reverse(self):
        pairs = build_pair_map(
            [_link(10, "en", "A")],
            [_page(100, "A")],
            [_link(200, "l", "B")],
            [_page(20, "B")],
        )
        assert pairs == {PairId(10, 100), PairId(20, 200)}

    def test_unresolved_title_dropped(self):
        tally = AlignTally()
        pairs = build_pair_map(
            [_link(10, "en", "Missing")], [_page(100, "A")], [], [], tally=tally
        )
        assert pairs == set()
        assert tally.links_dropped == 1

    def test_redirect_and_namespace_filtered_by_default(self):
        pages = [_page(100, "A", redirect=True), _page(101, "B", ns=14)]
        pairs = build_pair_map(
            [_link(1, "en", "A"), _link(2, "en", "B")], pages, [], []
        )
        assert pairs == set()

    def test_filters_can_be_relaxed(self):
        pages = [_page(100, "A", redirect=True)]
        filters = AlignmentFilters(drop_redirects=False)
        pairs = build_pair_map([_link(1, "en", "A")], pages, [], [], filters)
        assert pairs == {PairId(1, 100)}

    def test_title_collision_keeps_lowest_id(self):
        tally = AlignTally()
        pages = [_page(105, "A"), _page(100, "A"), _page(103, "A")]
        pairs = build_pair_map([_link(1, "en", "A")], pages, [], [], tally=tally)
        assert pairs == {PairId(1, 100)}
        assert tally.title_collisions == 2

    def test_duplicate_links_deduped(self):
        pairs = build_pair_map(
            [_link(10, "en", "A"), _link(10, "en", "A")], [_page(100, "A")], [], []
        )
        assert pairs == {PairId(10, 100)}

    @given(
        st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=30),
        st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=30),
    )
    def test_union_property(self, forward, reverse):
        """forward-only ∪ reverse-only ⊆ combined; equality when disjoint."""

        def fixture(fwd, rev):
            links_f = [_link(l, "en", f"E{e}") for l, e in fwd]
            pages_en = [_page(1000 + e, f"E{e}") for e in {e for _, e in fwd}]
            links_r = [_link(1000 + e, "l", f"L{l}") for l, e in rev]
            pages_l = [_page(l, f"L{l}") for l in {l for l, _ in rev}]
            return links_f, pages_en, links_r, pages_l

        f_only = build_pair_map(*fixture(forward, []))
        r_only = build_pair_map(*fixture([], reverse))
        combined = build_pair_map(*fixture(forward, reverse))
        assert f_only | r_only <= combined
        if not (f_only & r_only):
            assert f_only | r_only == combined

    def test_symmetry(self):
        """Swapping language roles and inverting every pair gives the same set."""
        links_f = [_link(1, "en", "A"), _link(2, "en", "B")]
        pages_en = [_page(100, "A"), _page(101, "B")]
        links_r = [_link(102, "l", "C")]
        pages_l = [_page(3, "C")]
        normal = build_pair_map(links_f, pages_en, links_r, pages_l)
        swapped = build_pair_map(links_r, pages_l, links_f, pages_en)
        assert {PairId(p.id_en, p.id_l) for p in swapped} == normal


def _stores(root, en, l, tally=None):
    """ArticleStores over article files holding (page_id, title, text) rows."""
    write_articles_jsonl(root / "en" / "wiki_00.jsonl", en)
    write_articles_jsonl(root / "l" / "wiki_00.jsonl", l)
    return ArticleStore(root / "en", "en", tally), ArticleStore(root / "l", "xx", tally)


class TestJoinArticles:
    def _one_pair(self, tmp_path):
        return _stores(tmp_path, [(100, "A", "english text")], [(10, "A-l", "target text")])

    def test_joins_present_pair(self, tmp_path):
        en, l = self._one_pair(tmp_path)
        (pair,) = join_articles({PairId(10, 100)}, en, l)
        assert pair.title_en == "A" and pair.text_l == "target text"
        assert pair.lang_l == "xx" and pair.origin == "wiki"

    def test_empty_text_skipped_and_tallied(self, tmp_path):
        en, l = _stores(tmp_path, [(100, "A", "")], [(10, "B", "text")])
        tally = AlignTally()
        assert list(join_articles({PairId(10, 100)}, en, l, tally)) == []
        assert tally.pairs_missing_text == 1

    def test_missing_article_skipped(self, tmp_path):
        en, l = self._one_pair(tmp_path)
        tally = AlignTally()
        out = list(join_articles({PairId(10, 100), PairId(11, 101)}, en, l, tally))
        assert len(out) == 1
        assert tally.pairs_missing_text == 1

    def test_output_order_ascending(self, tmp_path):
        en, l = _stores(tmp_path, [(5, "E5", "e"), (9, "E9", "e")],
                        [(2, "L2", "t"), (1, "L1", "t")])
        out = list(join_articles({PairId(2, 9), PairId(1, 5)}, en, l))
        assert [(p.pair.id_l, p.pair.id_en) for p in out] == [(1, 5), (2, 9)]

    def test_duplicate_article_ignored_and_tallied(self, tmp_path):
        tally = AlignTally()
        en, l = _stores(tmp_path, [(100, "A", "first"), (100, "A", "second")],
                        [(10, "B", "t")], tally)
        (pair,) = join_articles({PairId(10, 100)}, en, l, tally)
        assert pair.text_en == "first"
        assert tally.duplicate_articles == 1

    @given(st.permutations(list(range(6))))
    def test_order_insensitive_to_input_permutation(self, perm):
        pair_ids = {PairId(i, 100 + i) for i in range(6)}
        with tempfile.TemporaryDirectory() as root:
            en, l = _stores(Path(root), [(100 + i, f"E{i}", "e") for i in perm],
                            [(i, f"L{i}", "t") for i in perm])
            out = [p.pair for p in join_articles(pair_ids, en, l)]
        assert out == sorted(pair_ids)


class TestArticleStore:
    def test_store_backed_join(self, tmp_path):
        write_articles_jsonl(
            tmp_path / "en" / "wiki_00.jsonl",
            [(100, "A", "english"), (101, "B", "more")],
        )
        write_articles_jsonl(
            tmp_path / "l" / "wiki_00.jsonl", [(10, "A-l", "target")]
        )
        store_en = ArticleStore(tmp_path / "en", "en")
        store_l = ArticleStore(tmp_path / "l", "xx")
        assert len(store_en) == 2
        assert store_en.get(100).text == "english"
        assert store_en.get(999) is None
        (pair,) = join_articles({PairId(10, 100)}, store_en, store_l)
        assert pair.text_en == "english" and pair.text_l == "target"

    def test_store_tallies_duplicates(self, tmp_path):
        write_articles_jsonl(
            tmp_path / "wiki_00.jsonl", [(1, "A", "x"), (1, "A", "y")]
        )
        tally = AlignTally()
        store = ArticleStore(tmp_path / "wiki_00.jsonl", "en", tally)
        assert store.get(1).text == "x"
        assert tally.duplicate_articles == 1


class TestPairMapPersistence:
    def test_round_trip(self, tmp_path):
        pairs = {PairId(3, 7), PairId(1, 9), PairId(2, 2)}
        path = tmp_path / "pairs.tsv"
        save_pair_map(pairs, path)
        lines = path.read_text().splitlines()
        assert lines == ["1\t9", "2\t2", "3\t7"]
        assert load_pair_map(path) == pairs

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("1\t2\t3\n")
        with pytest.raises(ValueError):
            load_pair_map(path)
