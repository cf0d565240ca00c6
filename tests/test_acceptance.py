"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and count is pinned here, not configurable.
"""

import json
import random
import time

import numpy as np
import pytest

from xlpack.alignment import ArticlePair, PairId, build_pair_map
from xlpack.dump_ingest import LangLink, PageRecord, parse_langlinks_dump
from xlpack.export import SplitConfig, validation_set
from xlpack.packing import EN_FIRST, PackConfig, PackTally, direction_for, pack_pair
from xlpack.retrieval import VectorIndex
from xlpack.sliding import cut_windows, slide_optimized
from xlpack.synth import build_corpus, write_langlinks_dump
from xlpack.tokenization import WhitespaceTokenizer
from xlpack.web import (
    MAX_CONTENT_KEYWORDS,
    KeywordSet,
    RetrievalConfig,
    extract_keywords,
    two_step_retrieve,
)

from .oracles import reference_pack_pair, reference_slide_optimized
from .test_cli import _tree_bytes, make_config
from .test_packing import check_invariants
from .test_retrieval import _TableProvider, _batch, _batches


def _pass(num: int, message: str) -> None:
    print(f"\n[acceptance] criterion {num}: PASS - {message}")


def _random_pair(rng: random.Random, max_paragraphs=8, max_words=8) -> ArticlePair:
    def text():
        paras = [
            " ".join(f"w{rng.randrange(50)}" for _ in range(rng.randint(1, max_words)))
            for _ in range(rng.randint(1, max_paragraphs))
        ]
        return "\n\n".join(paras)

    def title():
        return " ".join(f"t{rng.randrange(30)}" for _ in range(rng.randint(1, 3)))

    k = rng.randrange(1_000_000)
    return ArticlePair(PairId(k, 1_000_000 + k), title(), title(), text(), text(), "xx")


def test_criterion_1_packing_invariant_suite():
    """10,000 random pairs x N in {8, 16, 64, 4096}: zero violations, < 60 s."""
    rng = random.Random(1001)
    pairs = [_random_pair(rng) for _ in range(10_000)]
    start = time.perf_counter()
    checked = 0
    for n in (8, 16, 64, 4096):
        tokenizer = WhitespaceTokenizer()
        cfg = PackConfig(n_budget=n)
        for pair in pairs:
            tally = PackTally()
            ctxs = pack_pair(pair, tokenizer, cfg, EN_FIRST, tally)
            check_invariants(pair, ctxs, cfg, tokenizer, tally)
            # Truncations must be tallied one-for-one with modified paragraphs.
            truncated_seen = sum(
                1
                for lang, src in (("en", pair.text_en), ("xx", pair.text_l))
                for orig, got in zip(
                    [p for p in src.split("\n\n") if p.strip()],
                    [s.text for c in ctxs for s in c.segments
                     if s.lang == lang and s.kind == "paragraph"],
                )
                if orig.strip() != got
            )
            assert truncated_seen == tally.truncated_paragraphs
            checked += len(ctxs)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"invariant suite took {elapsed:.1f}s"
    _pass(1, f"{checked} contexts over 40,000 pack calls, {elapsed:.1f}s")


def test_criterion_2_packing_oracle_equivalence():
    """1,000 small instances identical to the brute-force greedy reference."""
    rng = random.Random(1002)
    mismatches = 0
    for _ in range(1_000):
        pair = _random_pair(rng, max_paragraphs=8, max_words=6)
        n = rng.randint(4, 32)
        cfg = PackConfig(n_budget=n)
        tokenizer = WhitespaceTokenizer()
        actual = [
            ([tuple(s) for s in c.segments], c.token_len)
            for c in pack_pair(pair, tokenizer, cfg, EN_FIRST)
        ]
        expected = reference_pack_pair(pair, tokenizer, cfg, EN_FIRST)
        if actual != [(segs, length) for segs, length in expected]:
            mismatches += 1
    assert mismatches == 0
    _pass(2, "1,000 instances, zero mismatches")


def test_criterion_3_optimized_sliding():
    """1,000 random streams match the oracle; fixed examples reproduce."""

    def ctx(length, tag):
        return [tag * 1000 + k + 1 for k in range(length - 1)] + [0]

    def windows(streams, n):
        """The optimized plan's ranges, cut out of the streams as id lists."""
        ranges = slide_optimized([len(s) for s in streams], n)
        return [w.tolist() for w in cut_windows(streams, ranges)]

    rng = random.Random(1003)
    for trial in range(1_000):
        n = rng.randint(2, 64)
        streams = [ctx(rng.randint(1, n), k) for k in range(rng.randint(0, 20))]
        ws = windows(streams, n)
        flat_in = [t for s in streams for t in s]
        flat_out = [t for w in ws for t in w]
        assert flat_out == flat_in  # lossless
        for w in ws:
            assert len(w) <= n
            assert w[-1] == 0  # split-terminated
        assert ws == reference_slide_optimized(streams, n)
        # No context spans windows.
        pos = 0
        for w in ws:
            consumed = 0
            while consumed < len(w):
                assert w[consumed : consumed + len(streams[pos])] == streams[pos]
                consumed += len(streams[pos])
                pos += 1
    fixed1 = windows([ctx(5, 1), ctx(5, 2), ctx(5, 3)], 8)
    assert [len(w) for w in fixed1] == [5, 5, 5]
    fixed2 = windows([ctx(3, 1), ctx(4, 2), ctx(5, 3)], 8)
    assert [len(w) for w in fixed2] == [7, 5]
    _pass(3, "1,000 streams equal the positional oracle; fixtures reproduce")


def test_criterion_4_retrieval_constants_and_math():
    """Retrieval constants exact; fixture scores within 1e-9; exact search honest."""
    cfg = RetrievalConfig()
    assert cfg.threshold == 0.75
    assert cfg.max_results == 3
    assert MAX_CONTENT_KEYWORDS == 10
    title_map = {f"L{k}": f"E{k}" for k in range(40)}
    from xlpack.dump_ingest import RawArticle

    article = RawArticle(1, "L0", " ".join(f"[[L{k}]]" for k in range(15)), "xx")
    assert len(extract_keywords(article, title_map).content_keywords) == 10

    index = VectorIndex.build([_batch(("d1", 1.0, 0.0), ("d2", 0.0, 1.0), ("d3", 0.8, 0.6))])
    provider = _TableProvider({"T": [1.0, 0.0], "T c": [0.6, 0.8]})
    (results,) = two_step_retrieve([KeywordSet("T", ["c"])], index, provider, cfg)
    assert [r.doc_id for r in results] == ["d3", "d1"]
    scores = {r.doc_id: r.s_final for r in results}
    assert scores["d3"] == pytest.approx(0.88, abs=1e-9)
    assert scores["d1"] == pytest.approx(0.80, abs=1e-9)
    # d2 scores (0.0 + 0.8) / 2 = 0.40 and is filtered by the 0.75 threshold.
    block, _ = index.search(np.array([[1.0, 0.0], [0.6, 0.8]]), 3)
    s_d2 = (block[0, index.doc_ids.index("d2")] + block[1, index.doc_ids.index("d2")]) / 2
    assert s_d2 == pytest.approx(0.40, abs=1e-9)
    assert all(r.s_final >= 0.75 for r in results)

    rng = np.random.default_rng(1004)
    vectors = rng.standard_normal((10_000, 16))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    doc_ids = [f"doc{i:05d}" for i in range(10_000)]
    big_index = VectorIndex.build(_batches(doc_ids, vectors, 256))
    query = rng.standard_normal(16)
    query /= np.linalg.norm(query)
    # Independent scan oracle, vectorization-free on purpose.
    scored = sorted(
        ((doc_id, sum(float(a) * float(b) for a, b in zip(vector, query)))
         for doc_id, vector in zip(doc_ids, vectors)),
        key=lambda t: (-t[1], t[0]),
    )
    for k in (1, 10, 100):
        block, (rows,) = big_index.search(query[None, :], k)
        got = [(big_index.doc_ids[r], block[0, r]) for r in rows]
        assert [g[0] for g in got] == [s[0] for s in scored[:k]]
        for (_, gs), (_, es) in zip(got, scored[:k]):
            assert gs == pytest.approx(es, abs=1e-9)
    _pass(4, "constants 0.75/3/10 exact; fixture 0.80/0.40/0.88; 10k-doc scan matches")


def test_criterion_5_alignment_oracle_and_roundtrip(tmp_path):
    """Set-algebra oracle over a structured fixture; 100k-tuple round trip."""
    rng = random.Random(1005)
    forward_valid = [(1000 + k, 5000 + k) for k in range(500)]
    reverse_valid = [(2000 + k, 6000 + k) for k in range(300)]
    redirect_ids = [(3000 + k, 7000 + k) for k in range(20)]

    links_l_to_en = [LangLink(l, "en", f"E{e}") for l, e in forward_valid]
    pages_en = [PageRecord(e, 0, f"E{e}", False) for _, e in forward_valid]
    links_en_to_l = [LangLink(e, "xx", f"L{l}") for l, e in reverse_valid]
    pages_l = [PageRecord(l, 0, f"L{l}", False) for l, _ in reverse_valid]

    # 50 blank/invalid: 25 blank or whitespace titles, 25 unresolvable.
    for k in range(25):
        links_l_to_en.append(LangLink(4000 + k, "en", "" if k % 2 else "   "))
    for k in range(25):
        links_l_to_en.append(LangLink(4100 + k, "en", f"Missing{k}"))
    # 20 redirects: resolvable titles whose pages are redirects.
    for l, e in redirect_ids:
        links_l_to_en.append(LangLink(l, "en", f"R{e}"))
        pages_en.append(PageRecord(e, 0, f"R{e}", True))

    rng.shuffle(links_l_to_en)
    rng.shuffle(pages_en)
    got = build_pair_map(links_l_to_en, pages_en, links_en_to_l, pages_l)
    expected = {PairId(l, e) for l, e in forward_valid} | {
        PairId(l, e) for l, e in reverse_valid
    }
    assert got == expected

    alphabet = "abcXYZ äöü 'quote' \"double\" back\\slash\ttab\nnewline %_,()"
    rows = []
    for k in range(100_000):
        title = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        title = title.replace("_", "-")  # underscores are the space encoding
        rows.append((k, "en", title))
    dump = tmp_path / "big-langlinks.sql"
    write_langlinks_dump(dump, rows)
    parsed = [(l.from_page_id, l.target_lang, l.target_title)
              for l in parse_langlinks_dump(dump)]
    assert parsed == rows
    _pass(5, "pair map equals set-algebra oracle; 100,000 tuples round-trip")


def test_criterion_6_split_and_pipeline_determinism(tmp_path, monkeypatch):
    """Exactly 10 of 10,000 at 0.001/seed 32; byte-identical reruns and workers."""
    val = validation_set(10_000, SplitConfig(0.001, 32))
    assert len(val) == 10 and val <= set(range(10_000))
    assert validation_set(10_000, SplitConfig(0.001, 32)) == val
    assert validation_set(10_000, SplitConfig(0.001, 33)) != val
    assert validation_set(10_000, SplitConfig(0.0, 32)) == set()

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    from xlpack.cli import run

    corpus = build_corpus(tmp_path / "data", n_pairs=200, paragraphs_per_side=6, seed=6)
    cfg_path = make_config(tmp_path, corpus, n_budget=256)
    snapshots = []
    for workers in ("1", "8", "1"):
        assert run(["all", "--config", str(cfg_path), "--workers", workers]) == 0
        snapshots.append(_tree_bytes(tmp_path / "out"))
    assert snapshots[0] == snapshots[1] == snapshots[2]
    _pass(6, "split selects exactly 10; artifacts byte-identical across runs and workers {1, 8}")


def test_criterion_7_desk_scale_throughput(tmp_path, monkeypatch):
    """align -> pack -> slide -> export over 10,000 pairs, 20 paras/side, < 120 s."""
    from xlpack.cli import run
    from xlpack.report import read_events

    corpus = build_corpus(
        tmp_path / "data",
        n_pairs=10_000,
        paragraphs_per_side=20,
        words_per_paragraph=(4, 12),
        seed=7,
    )
    cfg_path = make_config(tmp_path, corpus, n_budget=4096)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    start = time.perf_counter()
    assert run(["all", "--config", str(cfg_path), "--workers", "1"]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s"
    events = read_events(tmp_path / "out" / "run_report.jsonl")
    done = [e for e in events if e["event"] == "run_complete"][-1]
    assert done["pairs_per_s"] > 0 and done["tokens_per_s"] > 0
    assert done["pair_count"] == 10_000
    _pass(7, f"10,000 pairs end-to-end in {elapsed:.1f}s "
             f"({done['pairs_per_s']} pairs/s, {done['tokens_per_s']} tokens/s)")


def test_criterion_8_direction_mix():
    """Mix at 1:1 over 10,000 pairs: fraction in [0.48, 0.52], seed-stable."""
    cfg = PackConfig(n_budget=4096, direction_policy="mix", mix_ratio=0.5, seed=32)
    pair_ids = [PairId(k, 1_000_000 + k) for k in range(10_000)]
    first = [direction_for(p, cfg) for p in pair_ids]
    fraction = first.count(EN_FIRST) / len(first)
    assert 0.48 <= fraction <= 0.52, fraction
    second = [direction_for(p, cfg) for p in pair_ids]
    assert first == second
    other_seed = [direction_for(p, PackConfig(
        n_budget=4096, direction_policy="mix", mix_ratio=0.5, seed=33)) for p in pair_ids]
    assert other_seed != first
    # Assignments propagate to packed contexts unchanged.
    tokenizer = WhitespaceTokenizer()
    for pair_id, direction in list(zip(pair_ids, first))[:50]:
        pair = ArticlePair(pair_id, "T", "U", "a b", "x y", "xx")
        for ctx in pack_pair(pair, tokenizer, cfg, direction):
            assert ctx.direction == direction
    _pass(8, f"en_first fraction {fraction:.4f} within [0.48, 0.52]; seed-stable")
