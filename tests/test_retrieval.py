"""Retrieval tests: keywords, providers, exact search, two-step scoring."""

import http.server
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlpack.dump_ingest import RawArticle
from xlpack.retrieval import (
    CachedEmbeddingProvider,
    CandidateDoc,
    EmbeddingError,
    KeywordSet,
    MockEmbeddingProvider,
    RetrievalConfig,
    RetrievalError,
    RetrievalTally,
    VectorIndex,
    WireEmbeddingProvider,
    build_augmented_pairs,
    extract_keywords,
    read_embedding_cache,
    two_step_retrieve,
    write_embedding_cache,
)

from .oracles import reference_keyword_frequencies, reference_search


def _article(text, title="Thema", page_id=7):
    return RawArticle(page_id, title, text, "xx")


class TestExtractKeywords:
    MAP = {"Gato": "Cat", "Perro": "Dog", "Thema": "Topic"}

    def test_frequency_ranking_matches_oracle(self):
        text = "ve [[Gato]] y [[Perro]] y otra vez [[Gato]]"
        ks = extract_keywords(_article(text), self.MAP)
        assert ks.content_keywords == ["Cat", "Dog"]
        assert ks.content_keywords == reference_keyword_frequencies(text, self.MAP)
        assert ks.title_keyword == "Topic"

    def test_unmapped_link_excluded(self):
        ks = extract_keywords(_article("[[Xyz]] [[Gato]]"), self.MAP)
        assert ks.content_keywords == ["Cat"]

    def test_cap_at_ten(self):
        title_map = {f"L{k}": f"E{k}" for k in range(12)}
        text = " ".join(f"[[L{k}]]" for k in range(12))
        ks = extract_keywords(_article(text, title="unmapped"), title_map)
        assert len(ks.content_keywords) == 10
        assert ks.content_keywords == [f"E{k}" for k in range(10)]

    def test_unmapped_title_falls_back_and_tallies(self):
        tally = RetrievalTally()
        ks = extract_keywords(_article("", title="Nowhere"), self.MAP, tally)
        assert ks.title_keyword == "Nowhere"
        assert tally.unmapped_titles == 1

    def test_anchored_links_and_underscores(self):
        ks = extract_keywords(_article("[[Gato|el gato]] [[Perro_Grande]]"),
                              {"Gato": "Cat", "Perro Grande": "Big Dog"})
        assert ks.content_keywords == ["Cat", "Big Dog"]

    def test_tie_broken_by_first_occurrence(self):
        text = "[[Perro]] [[Gato]]"
        ks = extract_keywords(_article(text), self.MAP)
        assert ks.content_keywords == ["Dog", "Cat"]


class TestProviders:
    def test_mock_deterministic_and_normalized(self):
        provider = MockEmbeddingProvider(dim=8, seed=3)
        a, b = provider.embed_batch(["same text", "same text"])
        assert np.array_equal(a, b)
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-6
        (c,) = MockEmbeddingProvider(dim=8, seed=4).embed_batch(["same text"])
        assert not np.array_equal(a, c)

    def test_cache_round_trip(self, tmp_path):
        table = {
            "hello": np.array([0.6, 0.8]),
            "unicode κλειδί": np.array([1.0, 0.0]),
        }
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, table)
        loaded = read_embedding_cache(path)
        assert set(loaded) == set(table)
        assert np.allclose(loaded["hello"], [0.6, 0.8], atol=1e-7)

    def test_cache_missing_key_lists_it(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, {"a": np.array([1.0, 0.0])})
        provider = CachedEmbeddingProvider.from_file(path)
        with pytest.raises(EmbeddingError) as err:
            provider.embed_batch(["a", "missing-key"])
        assert "missing-key" in str(err.value)

    def test_truncated_cache_raises(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, {"a": np.array([1.0, 0.0])})
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(RetrievalError):
            read_embedding_cache(path)

    def test_embed_batch_normalizes(self):
        (v,) = MockEmbeddingProvider(dim=4).embed_batch(["anything"])
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-6
        (w,) = CachedEmbeddingProvider({"a": np.array([3.0, 4.0])}).embed_batch(["a"])
        assert np.allclose(w, [0.6, 0.8], atol=1e-12)


class _EmbeddingHandler(http.server.BaseHTTPRequestHandler):
    fail_times = 0
    calls = 0

    def do_POST(self):
        cls = type(self)
        cls.calls += 1
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if cls.calls <= cls.fail_times:
            self.send_response(503)
            self.end_headers()
            return
        vectors = [[1.0, 0.0] for _ in body["texts"]]
        payload = json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def embedding_server():
    _EmbeddingHandler.fail_times = 0
    _EmbeddingHandler.calls = 0
    server = http.server.HTTPServer(("127.0.0.1", 0), _EmbeddingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()
    server.server_close()
    thread.join()


class TestWireProvider:
    def test_basic_request(self, embedding_server):
        provider = WireEmbeddingProvider(embedding_server, max_retries=0)
        vecs = provider.embed_batch(["a", "b"])
        assert len(vecs) == 2
        assert np.allclose(vecs[0], [1.0, 0.0])

    def test_retries_then_succeeds(self, embedding_server):
        _EmbeddingHandler.fail_times = 2
        provider = WireEmbeddingProvider(embedding_server, max_retries=3, backoff_s=0.01)
        vecs = provider.embed_batch(["a"])
        assert np.allclose(vecs[0], [1.0, 0.0])
        assert _EmbeddingHandler.calls == 3

    def test_exhausted_retries_name_batch(self, embedding_server):
        _EmbeddingHandler.fail_times = 99
        provider = WireEmbeddingProvider(embedding_server, max_retries=1, backoff_s=0.01)
        with pytest.raises(EmbeddingError) as err:
            provider.embed_batch(["a", "b", "c"])
        assert "batch of 3" in str(err.value)


def _doc(doc_id, x, y, text="text"):
    return CandidateDoc(doc_id, text, np.array([x, y], dtype=float))


class TestVectorIndex:
    def test_empty_index_returns_nothing(self):
        index = VectorIndex.build([])
        assert index.search(np.array([1.0, 0.0]), 5) == []

    def test_identical_vector_scores_one(self):
        index = VectorIndex.build([_doc("d1", 1.0, 0.0)])
        ((doc_id, score),) = index.search(np.array([1.0, 0.0]), 1)
        assert doc_id == "d1"
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_doc_id_errors(self):
        with pytest.raises(RetrievalError) as err:
            VectorIndex.build([_doc("d1", 1.0, 0.0), _doc("d1", 0.0, 1.0)])
        assert "d1" in str(err.value)

    def test_dimension_mismatch_names_doc(self):
        bad = CandidateDoc("d2", "t", np.array([1.0, 0.0, 0.0]))
        with pytest.raises(RetrievalError) as err:
            VectorIndex.build([_doc("d1", 1.0, 0.0), bad])
        assert "d2" in str(err.value)

    def test_orthonormal_scores(self):
        index = VectorIndex.build([_doc("d1", 1.0, 0.0), _doc("d2", 0.0, 1.0)])
        out = index.search(np.array([1.0, 0.0]), 2)
        assert [d for d, _ in out] == ["d1", "d2"]
        assert out[0][1] == pytest.approx(1.0) and out[1][1] == pytest.approx(0.0)

    def test_hand_dot_product(self):
        index = VectorIndex.build([_doc("d", 0.8, 0.6)])
        ((_, score),) = index.search(np.array([0.6, 0.8]), 1)
        assert score == pytest.approx(0.96, abs=1e-12)

    def test_tie_broken_by_doc_id(self):
        index = VectorIndex.build([_doc("zz", 1.0, 0.0), _doc("aa", 1.0, 0.0)])
        ((doc_id, _),) = index.search(np.array([1.0, 0.0]), 1)
        assert doc_id == "aa"

    def test_insertion_order_independent(self):
        docs = [_doc("a", 0.6, 0.8), _doc("b", 0.8, 0.6), _doc("c", 1.0, 0.0)]
        q = np.array([0.7, 0.714142842854285])
        q = q / np.linalg.norm(q)
        fwd = VectorIndex.build(docs).search(q, 3)
        rev = VectorIndex.build(list(reversed(docs))).search(q, 3)
        assert fwd == rev

    @given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_bruteforce_oracle(self, n_docs, k, seed):
        rng = np.random.default_rng(seed)
        docs = []
        for i in range(n_docs):
            v = rng.standard_normal(6)
            docs.append(CandidateDoc(f"doc{i:03d}", "t", v / np.linalg.norm(v)))
        q = rng.standard_normal(6)
        q = q / np.linalg.norm(q)
        index = VectorIndex.build(docs)
        got = index.search(q, k)
        expected = reference_search([(d.doc_id, d.vector) for d in docs], q, k)
        assert [g[0] for g in got] == [e[0] for e in expected]
        for (_, got_score), (_, want_score) in zip(got, expected):
            assert got_score == pytest.approx(want_score, abs=1e-9)


class _TableProvider:
    """Exact text -> vector table for hand-computed fixtures."""

    def __init__(self, table):
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}

    def embed_batch(self, texts):
        return [self.table[t] for t in texts]


class TestTwoStepRetrieve:
    def _fixture(self):
        ks = KeywordSet("T", ["c"])
        provider = _TableProvider({"T": [1.0, 0.0], "T c": [0.6, 0.8]})
        index = VectorIndex.build([
            _doc("d1", 1.0, 0.0),
            _doc("d2", 0.0, 1.0),
            _doc("d3", 0.8, 0.6),
        ])
        return ks, provider, index

    def test_hand_computed_scores(self):
        ks, provider, index = self._fixture()
        results = two_step_retrieve(ks, index, provider, RetrievalConfig())
        assert [r.doc_id for r in results] == ["d3", "d1"]
        by_id = {r.doc_id: r for r in results}
        assert by_id["d3"].s_final == pytest.approx(0.88, abs=1e-9)
        assert by_id["d1"].s_final == pytest.approx(0.80, abs=1e-9)
        for r in results:
            assert r.s_final == pytest.approx((r.s_title + r.s_full) / 2, abs=1e-9)
            assert r.s_final >= 0.75

    def test_threshold_filters(self):
        ks, provider, index = self._fixture()
        results = two_step_retrieve(ks, index, provider, RetrievalConfig())
        assert "d2" not in [r.doc_id for r in results]  # s_final = 0.40

    def test_cap_respected(self):
        ks, provider, index = self._fixture()
        cfg = RetrievalConfig(max_results=1)
        results = two_step_retrieve(ks, index, provider, cfg)
        assert [r.doc_id for r in results] == ["d3"]

    def test_empty_keywords_tallied(self):
        tally = RetrievalTally()
        provider = _TableProvider({})
        out = two_step_retrieve(KeywordSet(""), VectorIndex.build([]), provider,
                                RetrievalConfig(), tally)
        assert out == []
        assert tally.empty_keyword_sets == 1

    def test_pool_monotonicity(self):
        rng = np.random.default_rng(11)
        docs = []
        for i in range(200):
            v = rng.standard_normal(4)
            docs.append(CandidateDoc(f"d{i:03d}", "t", v / np.linalg.norm(v)))
        index = VectorIndex.build(docs)
        provider = MockEmbeddingProvider(dim=4, seed=2)
        ks = KeywordSet("query title", ["kw one", "kw two"])
        # Non-binding cap: enlarging the pool may only add results.
        results = {}
        for pool_k in (5, 20, 80):
            cfg = RetrievalConfig(threshold=0.0, max_results=10_000,
                                  candidate_pool_k=pool_k)
            results[pool_k] = {r.doc_id: r.s_final
                               for r in two_step_retrieve(ks, index, provider, cfg)}
        assert results[5].keys() <= results[20].keys() <= results[80].keys()
        for doc_id, score in results[5].items():
            assert results[80][doc_id] == pytest.approx(score, abs=1e-12)


class TestBuildAugmentedPairs:
    def _results(self):
        return [
            type("R", (), {"doc_id": "docA", "s_title": 0.9, "s_full": 0.9, "s_final": 0.9})(),
            type("R", (), {"doc_id": "docB", "s_title": 0.8, "s_full": 0.8, "s_final": 0.8})(),
        ]

    def test_fan_out(self):
        art = _article("target text", title="Thema", page_id=42)
        corpus = {"docA": "First line\nbody", "docB": "Only line"}
        pairs = build_augmented_pairs(art, self._results(), corpus)
        assert len(pairs) == 2
        assert all(p.text_l == "target text" for p in pairs)
        assert all(p.origin == "web" for p in pairs)
        assert pairs[0].title_en == "First line"
        assert pairs[0].pair.id_l == 42
        assert pairs[0].pair.id_en != pairs[1].pair.id_en

    def test_empty_results(self):
        assert build_augmented_pairs(_article("t"), [], {}) == []

    def test_missing_or_empty_text_tallied(self):
        tally = RetrievalTally()
        corpus = {"docA": "   "}
        pairs = build_augmented_pairs(_article("t"), self._results(), corpus, tally)
        assert pairs == []
        assert tally.missing_corpus_texts == 2
