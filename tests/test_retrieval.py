"""Retrieval tests: keywords, providers, exact search, two-step scoring."""

import hashlib
import http.server
import json
import os
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xlpack import retrieval
from xlpack.dump_ingest import RawArticle
from xlpack.retrieval import (
    SEARCH_TILE_ROWS as TILE,
    CachedEmbeddingProvider,
    MockEmbeddingProvider,
    VectorIndex,
    WireEmbeddingProvider,
    _unit_rows,
    write_embedding_cache,
)
from xlpack.web import (
    EmbeddingError,
    KeywordSet,
    RetrievalConfig,
    RetrievalError,
    RetrievalTally,
    extract_keywords,
    pseudo_pair,
    read_candidate_corpus,
    two_step_retrieve,
)

from .oracles import reference_keyword_frequencies, reference_search, reference_unit_vector


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

    def test_link_to_the_article_itself_is_no_content_keyword(self):
        text = "[[Thema]] ve [[Gato]] y [[Thema|el tema]]"
        ks = extract_keywords(_article(text, title="Thema"), self.MAP)
        assert ks.content_keywords == ["Cat"]
        assert ks.full_query() == "Topic Cat"

    def test_tie_broken_by_first_occurrence(self):
        text = "[[Perro]] [[Gato]]"
        ks = extract_keywords(_article(text), self.MAP)
        assert ks.content_keywords == ["Dog", "Cat"]


class TestUnitRows:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("dim", [1, 2, 3, 17, 128, 1023])
    def test_matches_one_vector_at_a_time(self, dim, dtype):
        rng = np.random.default_rng(dim)
        rows = rng.standard_normal((10, dim)) * rng.uniform(0.1, 10.0, (10, 1))
        # Rows at 1 +- 5e-7 are kept as they are; rows at 1 +- 2e-6 are divided.
        unit = rows[:4] / np.linalg.norm(rows[:4], axis=1, keepdims=True)
        rows[:4] = unit * np.array([[1 + 5e-7], [1 - 5e-7], [1 + 2e-6], [1 - 2e-6]])
        rows = rows.astype(dtype)
        texts = [f"text {i}" for i in range(len(rows))]
        want = np.stack([reference_unit_vector(row, repr(t)) for row, t in zip(rows, texts)])
        got = _unit_rows(rows.copy(), texts)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        kept = got[:4] == rows[:4].astype(np.float64)
        assert [bool(row.all()) for row in kept] == [True, True, False, False]

    def test_zero_row_names_its_text(self):
        rows = np.array([[0.6, 0.8], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(EmbeddingError) as err:
            _unit_rows(rows, ["first", "blank text", "another"])
        assert str(err.value) == "zero-norm embedding for 'blank text'"

    @pytest.mark.parametrize("rows", [[[1.0, 0.0], [1.0]], [[1.0, 0.0]], [1.0, 0.0]],
                             ids=["ragged", "short", "flat"])
    def test_not_one_row_per_text_names_batch(self, rows):
        with pytest.raises(EmbeddingError) as err:
            _unit_rows(rows, ["a", "b"])
        assert str(err.value).startswith("embedding batch of 2 texts")


class TestProviders:
    def test_mock_deterministic_and_normalized(self):
        provider = MockEmbeddingProvider(dim=8, seed=3)
        a, b = provider.embed_batch(["same text", "same text"])
        assert np.array_equal(a, b)
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-6
        (c,) = MockEmbeddingProvider(dim=8, seed=4).embed_batch(["same text"])
        assert not np.array_equal(a, c)
        # Each row is the text's seeded normal draw, normalized as one vector.
        digest = hashlib.blake2b(b"3:same text", digest_size=8).digest()
        vec = np.random.default_rng(int.from_bytes(digest, "little")).standard_normal(8)
        assert a.tobytes() == reference_unit_vector(vec, "'same text'").tobytes()

    def test_cache_round_trip(self, tmp_path):
        table = {
            "hello": np.array([0.6, 0.8]),
            "unicode κλειδί": np.array([1.0, 0.0]),
        }
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, table)
        provider = CachedEmbeddingProvider(path)
        for key, vec in table.items():
            (got,) = provider.embed_batch([key])
            assert got.tobytes() == vec.astype("<f4").astype(np.float64).tobytes()
        assert np.allclose(provider.embed_batch(list(table)), [[0.6, 0.8], [1.0, 0.0]], atol=1e-7)
        with pytest.raises(EmbeddingError):
            provider.embed_batch(["hello "])  # a key is matched whole

    def test_last_record_of_a_duplicated_key_wins(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
        with open(path, "ab") as f:  # a second record keyed "a", after "b"
            f.write(path.read_bytes()[:17].replace(np.array([1.0, 0.0], "<f4").tobytes(),
                                                   np.array([0.6, 0.8], "<f4").tobytes()))
        got = CachedEmbeddingProvider(path).embed_batch(["a", "b"])
        want = np.array([[0.6, 0.8], [0.0, 1.0]], dtype="<f4").astype(np.float64)
        assert got.tobytes() == want.tobytes()

    def test_key_that_is_not_utf8_names_file_and_offset(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, {"a": np.array([1.0, 0.0])})
        with open(path, "ab") as f:  # a second record, at offset 17, keyed b"\xff"
            f.write(struct.pack("<I", 1) + b"\xff" + struct.pack("<I", 2)
                    + np.array([0.0, 1.0], "<f4").tobytes())
        with pytest.raises(RetrievalError) as err:
            CachedEmbeddingProvider(path)
        assert str(err.value).startswith(
            f"{path}: the key of the record at offset 17 is not UTF-8: 'utf-8' codec")

    def test_record_whose_key_differs_counts_as_missing(self, tmp_path, monkeypatch):
        # A digest of the first character only: "ab" and "ac" collide, and the
        # table keeps the later record, keyed "ac".
        monkeypatch.setattr(retrieval, "_digest",
                            lambda raw: hashlib.blake2b(raw[:1], digest_size=16).digest())
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, {"ab": np.array([1.0, 0.0]), "ac": np.array([0.0, 1.0])})
        provider = CachedEmbeddingProvider(path)
        assert provider.embed_batch(["ac"]).tolist() == [[0.0, 1.0]]
        with pytest.raises(EmbeddingError) as err:
            provider.embed_batch(["ac", "ab", "ad"])
        assert str(err.value) == "embedding cache is missing keys: ['ab', 'ad']"

    def test_empty_cache_has_every_key_missing(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"")
        provider = CachedEmbeddingProvider(path)
        with pytest.raises(EmbeddingError) as err:
            provider.embed_batch(["a"])
        assert str(err.value) == "embedding cache is missing keys: ['a']"

    def test_cache_missing_key_lists_it(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, {"a": np.array([1.0, 0.0])})
        provider = CachedEmbeddingProvider(path)
        with pytest.raises(EmbeddingError) as err:
            provider.embed_batch(["a", "missing-key"])
        assert str(err.value) == "embedding cache is missing keys: ['missing-key']"

    def test_zero_vector_in_cache_names_its_text(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, {"a": np.array([1.0, 0.0]),
                                     "blank text": np.array([0.0, 0.0])})
        provider = CachedEmbeddingProvider(path)
        with pytest.raises(EmbeddingError) as err:
            provider.embed_batch(["a", "blank text"])
        assert str(err.value) == "zero-norm embedding for 'blank text'"

    def test_truncated_cache_raises(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, {"a": np.array([1.0, 0.0])})
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(RetrievalError):
            CachedEmbeddingProvider(path)

    def test_cache_values_widen_to_the_written_float32_bits(self, tmp_path):
        rng = np.random.default_rng(5)
        table = {f"text {i}": rng.standard_normal(i + 1) * 3 for i in range(6)}
        table["unit"] = np.array([0.6, 0.8])  # kept as it is, so its row is the widened bits
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, table)
        provider = CachedEmbeddingProvider(path)
        for key, vec in table.items():
            (got,) = provider.embed_batch([key])
            want = reference_unit_vector(vec.astype("<f4").astype(np.float64), repr(key))
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        (unit,) = provider.embed_batch(["unit"])
        assert unit.tobytes() == np.array([0.6, 0.8], dtype="<f4").astype(np.float64).tobytes()

    @pytest.mark.parametrize("cut, message", [
        (19, "truncated record header at offset 17"),
        (23, "truncated record at offset 17"),
        (32, "truncated vector for 'bc'"),
    ])
    def test_truncation_errors_name_offset(self, tmp_path, cut, message):
        # Records: "a" at bytes 0-16 and "bc" at bytes 17-34, two components each.
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, {"a": np.array([1.0, 0.0]), "bc": np.array([0.0, 1.0])})
        assert path.stat().st_size == 35
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(RetrievalError) as err:
            CachedEmbeddingProvider(path)
        assert str(err.value) == f"{path}: {message}"

    def test_cache_cut_after_the_scan_names_file_and_key(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, {"a": np.array([1.0, 0.0]), "bc": np.array([0.0, 1.0])})
        provider = CachedEmbeddingProvider(path)
        path.write_bytes(path.read_bytes()[:32])  # the vector of "bc" ends at byte 35
        with pytest.raises(RetrievalError) as err:
            provider.embed_batch(["a", "bc"])
        assert str(err.value) == f"{path}: short read of the vector for 'bc'"
        # The vector of "a" is still whole, but the file is not the one scanned.
        with pytest.raises(RetrievalError) as err:
            provider.embed_batch(["a"])
        assert str(err.value) == f"{path}: changed since it was scanned"

    @pytest.mark.parametrize("change", ["same_size", "same_mtime"])
    def test_cache_rewritten_after_the_scan_is_refused(self, tmp_path, change):
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, {"a": np.array([1.0, 0.0])})
        provider = CachedEmbeddingProvider(path)
        mtime = path.stat().st_mtime_ns
        if change == "same_size":
            write_embedding_cache(path, {"a": np.array([0.0, 1.0])})
            # The coarse file clock may not have moved since the first write.
            mtime += 10**9
        else:
            write_embedding_cache(path, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
        os.utime(path, ns=(mtime, mtime))
        with pytest.raises(RetrievalError) as err:
            provider.embed_batch(["a"])
        assert str(err.value) == f"{path}: changed since it was scanned"

    def test_cache_rows_of_two_dims_name_the_batch(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, {"a": np.array([1.0, 0.0]), "b": np.array([1.0, 0.0, 0.0])})
        with pytest.raises(EmbeddingError) as err:
            CachedEmbeddingProvider(path).embed_batch(["a", "b"])
        assert str(err.value).startswith("embedding batch of 2 texts")

    def test_loading_a_cache_holds_no_vector_bytes(self, tmp_path):
        # 2,000 records at dim 256 hold 2,000 * 256 * 4 = 2,048,000 bytes of
        # vectors, and their keys 2,000 * key_len bytes or more. The load may
        # hold only its table: per record a 16-byte digest, an int64 offset
        # and a uint32 dim, 28 bytes however long the key. `slack` covers the
        # provider object, its attribute dict, its path, its stamp and the
        # three arrays' headers.
        table_bytes = 2000 * (16 + 8 + 4)
        slack = 4096
        for key_len in (10, 2000):
            rng = np.random.default_rng(3)
            table = {f"text {i} " + "x" * (key_len + i % 50): rng.standard_normal(256)
                     for i in range(2000)}
            path = tmp_path / f"emb{key_len}.bin"
            write_embedding_cache(path, table)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                provider = CachedEmbeddingProvider(path)
                held, peak = (size - before for size in tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
            assert held <= table_bytes + slack
            # Nor is the file read whole: at the peak the load held its 64 KiB
            # read buffer and one record's key (as bytes and as str), or else
            # the scan's three grown arrays, the sort order and the sorted
            # copies, each no more than one table's worth.
            assert peak <= (1 << 16) + 4 * (key_len + 100) + 4 * table_bytes + slack
            assert provider.embed_batch(list(table)[-3:]).shape == (3, 256)

    def test_providers_return_one_float64_matrix(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, {"a": np.array([3.0, 4.0]), "b": np.array([1.0, 0.0])})
        for provider in (MockEmbeddingProvider(dim=2), CachedEmbeddingProvider(path)):
            rows = provider.embed_batch(["a", "b", "a"])
            assert type(rows) is np.ndarray and rows.dtype == np.float64
            assert rows.shape == (3, 2)

    def test_embed_batch_normalizes(self, tmp_path):
        (v,) = MockEmbeddingProvider(dim=4).embed_batch(["anything"])
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-6
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, {"a": np.array([3.0, 4.0])})
        (w,) = CachedEmbeddingProvider(path).embed_batch(["a"])
        assert np.allclose(w, [0.6, 0.8], atol=1e-12)

    def test_default_providers_match_the_default_config(self):
        cfg = RetrievalConfig()
        mock = MockEmbeddingProvider()
        assert (mock.dim, mock.seed) == (cfg.dim, cfg.seed)
        wire = WireEmbeddingProvider("http://localhost:1/embed")
        assert (wire.timeout_s, wire.max_retries) == (cfg.timeout_s, cfg.max_retries)


class _EmbeddingHandler(http.server.BaseHTTPRequestHandler):
    fail_times = 0
    calls = 0
    vectors = None  # the response's vectors; [1.0, 0.0] per text when None

    def do_POST(self):
        cls = type(self)
        cls.calls += 1
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if cls.calls <= cls.fail_times:
            self.send_response(503)
            self.end_headers()
            return
        vectors = cls.vectors or [[1.0, 0.0] for _ in body["texts"]]
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
    _EmbeddingHandler.vectors = None
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
        assert type(vecs) is np.ndarray and vecs.shape == (2, 2)
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

    def test_vectors_of_different_lengths_name_batch(self, embedding_server):
        _EmbeddingHandler.vectors = [[1.0, 0.0], [1.0], [0.0, 1.0]]
        provider = WireEmbeddingProvider(embedding_server, max_retries=2, backoff_s=0.01)
        with pytest.raises(EmbeddingError) as err:
            provider.embed_batch(["a", "b", "c"])
        assert str(err.value).startswith("embedding batch of 3 texts")
        assert _EmbeddingHandler.calls == 1  # the same request would get the same answer


def _batch(*docs):
    """One (doc ids, rows) batch of two-dimensional docs given as (doc_id, x, y)."""
    return [doc_id for doc_id, *_ in docs], np.array([row for _, *row in docs], dtype=float)


def _batches(doc_ids, rows, size=7):
    """`doc_ids` and their rows cut into (doc ids, rows) batches of `size`, the
    form in which retrieve feeds its corpus to the index."""
    return [(doc_ids[i:i + size], rows[i:i + size]) for i in range(0, len(doc_ids), size)]


def _search_one(index, query, k):
    """(doc_id, score) pairs of one query, searched as a one-row block."""
    scores, (rows,) = index.search(np.array([query], dtype=float), k)
    return [(index.doc_ids[r], float(scores[0, r])) for r in rows]


def _int_index(matrix):
    """An index over small-integer rows, so that every score is exact."""
    doc_ids = [f"doc{i:03d}" for i in range(len(matrix))]
    return VectorIndex(doc_ids, np.asarray(matrix, dtype=float))


class TestVectorIndex:
    def test_empty_index_returns_nothing(self):
        index = VectorIndex.build([])
        scores, top = index.search(np.array([[1.0, 0.0], [0.0, 1.0]]), 5)
        assert scores.shape == (2, 0)
        assert [list(rows) for rows in top] == [[], []]

    def test_identical_vector_scores_one(self):
        index = VectorIndex.build([_batch(("d1", 1.0, 0.0))])
        ((doc_id, score),) = _search_one(index, [1.0, 0.0], 1)
        assert doc_id == "d1"
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_doc_id_errors(self):
        docs = [("d1", 1.0, 0.0), ("d0", 0.6, 0.8), ("d1", 0.0, 1.0)]
        for batches in ([_batch(*docs[:2]), _batch(docs[2])], [_batch(*docs)]):
            with pytest.raises(RetrievalError) as err:
                VectorIndex.build(batches)
            assert "d1" in str(err.value)

    def test_dimension_mismatch_names_doc(self):
        bad = (["d2", "d3"], np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        with pytest.raises(RetrievalError) as err:
            VectorIndex.build([_batch(("d1", 1.0, 0.0)), bad])
        assert "d2" in str(err.value)

    def test_batch_with_a_row_per_id_only(self):
        with pytest.raises(RetrievalError) as err:
            VectorIndex.build([(["d1", "d2"], np.array([[1.0, 0.0]]))])
        assert "d1" in str(err.value)

    def test_query_dimension_mismatch_raises(self):
        index = VectorIndex.build([_batch(("d1", 1.0, 0.0))])
        with pytest.raises(RetrievalError) as err:
            index.search(np.array([[1.0, 0.0, 0.0]]), 1)
        assert "dimension 2" in str(err.value)

    def test_orthonormal_scores(self):
        index = VectorIndex.build([_batch(("d1", 1.0, 0.0), ("d2", 0.0, 1.0))])
        out = _search_one(index, [1.0, 0.0], 2)
        assert [d for d, _ in out] == ["d1", "d2"]
        assert out[0][1] == pytest.approx(1.0) and out[1][1] == pytest.approx(0.0)

    def test_hand_dot_product(self):
        index = VectorIndex.build([_batch(("d", 0.8, 0.6))])
        ((_, score),) = _search_one(index, [0.6, 0.8], 1)
        assert score == pytest.approx(0.96, abs=1e-12)

    def test_tie_broken_by_doc_id(self):
        index = VectorIndex.build([_batch(("zz", 1.0, 0.0)), _batch(("aa", 1.0, 0.0))])
        ((doc_id, _),) = _search_one(index, [1.0, 0.0], 1)
        assert doc_id == "aa"

    def test_insertion_order_independent(self):
        docs = [("a", 0.6, 0.8), ("b", 0.8, 0.6), ("c", 1.0, 0.0)]
        q = np.array([0.7, 0.714142842854285])
        q = q / np.linalg.norm(q)
        fwd = _search_one(VectorIndex.build([_batch(*docs)]), q, 3)
        rev = _search_one(VectorIndex.build([_batch(*reversed(docs))]), q, 3)
        assert fwd == rev

    def test_k_below_one_rejected(self):
        index = VectorIndex.build([_batch(("d1", 1.0, 0.0))])
        with pytest.raises(ValueError):
            index.search(np.array([[1.0, 0.0]]), 0)

    def test_rows_held_as_float32_only_when_they_convert_exactly(self, tmp_path):
        ids = [f"d{i:02d}" for i in range(20)]
        rng = np.random.default_rng(4)
        vecs = rng.standard_normal((20, 8))
        path = tmp_path / "emb.bin"
        write_embedding_cache(path, dict(zip(ids, vecs / np.linalg.norm(vecs, axis=1)[:, None])))
        cached = CachedEmbeddingProvider(path).embed_batch(ids)  # unit float32 rows, widened
        mock = MockEmbeddingProvider(dim=8).embed_batch(ids)
        for rows, dtype in ((cached, np.float32), (mock, np.float64)):
            index = VectorIndex.build(_batches(ids, rows))
            assert index.matrix.dtype == dtype
            assert index.matrix.astype(np.float64).tobytes() == rows.tobytes()
        # A later batch that does not convert widens the float32 rows before it.
        mixed = np.concatenate([cached[:10], mock[10:]])
        index = VectorIndex.build(_batches(ids, mixed))
        assert index.matrix.dtype == np.float64 and index.matrix.tobytes() == mixed.tobytes()
        # Either way the scores are those of the same rows held as float64.
        queries = mock[:3]
        want, want_top = VectorIndex(ids, cached.copy()).search(queries, 4)
        want = want.copy()
        scores, top = VectorIndex.build(_batches(ids, cached)).search(queries, 4)
        assert scores.tobytes() == want.tobytes()
        assert [list(t) for t in top] == [list(t) for t in want_top]

    def test_float32_index_holds_four_bytes_per_component(self):
        # 2,000 rows at dim 64 are 512,000 bytes as float32 and twice that as
        # float64. The buffer the rows are appended to may be over-allocated
        # by up to 1/8 of its size as it grows. `slack` covers the index
        # object, its attribute dict and the matrix's header.
        n, dim = 2000, 64

        def batches():
            rng = np.random.default_rng(5)
            for start in range(0, n, 100):
                rows = rng.standard_normal((100, dim)).astype(np.float32).astype(np.float64)
                yield [f"d{i:05d}" for i in range(start, start + 100)], rows

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = VectorIndex.build(batches())
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert index.matrix.dtype == np.float32
        id_bytes = sys.getsizeof(index.doc_ids) + sum(map(sys.getsizeof, index.doc_ids))
        slack = 4096
        assert held <= 4 * dim * n * 9 // 8 + id_bytes + slack < 8 * dim * n

    @pytest.mark.parametrize("n_queries", [2, 26])
    @pytest.mark.parametrize("n_rows", [TILE - 1, TILE, TILE + 1, TILE + 2, 2 * TILE + 1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tiled_scores_match_one_product(self, dtype, n_rows, n_queries):
        rng = np.random.default_rng(n_rows * n_queries)
        rows = rng.standard_normal((n_rows, 16))
        rows = (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(dtype)
        rows = rows.astype(np.float64)
        queries = rng.standard_normal((n_queries, 16))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        index = VectorIndex.build(_batches([f"d{i:04d}" for i in range(n_rows)], rows, 100))
        assert index.matrix.dtype == dtype
        scores, top = index.search(queries, 5)
        want = queries @ rows.T
        assert np.abs(scores - want).max() <= 1e-12
        if n_rows <= TILE:  # one tile is one product, as an unblocked search makes it
            assert scores.tobytes() == want.tobytes()
        assert [list(t) for t in top] == [list(np.argsort(-w, kind="stable")[:5]) for w in want]

    @pytest.mark.parametrize("n_rows", [TILE - 1, TILE, TILE + 1, TILE + 2, 2 * TILE + 1])
    def test_integer_rows_score_exactly_across_tile_edges(self, n_rows):
        # Small-integer rows make every score exact. The rows on both sides of
        # each tile edge tie at the top score of the all-ones query, so the
        # tie rule is checked across every edge.
        rng = np.random.default_rng(n_rows)
        matrix = rng.integers(-2, 2, (n_rows, 3))
        for edge in range(TILE, n_rows, TILE):
            matrix[edge - 1:edge + 1] = 2
        queries = rng.integers(-2, 3, (26, 3))
        queries[0] = 1
        index = VectorIndex([f"doc{i:04d}" for i in range(n_rows)], matrix.astype(float))
        docs = list(zip(index.doc_ids, matrix))
        for k in (1, 2, 7):
            scores, top = index.search(queries.astype(float), k)
            assert scores.tobytes() == (queries @ matrix.T).astype(float).tobytes()
            for q, rows in zip(queries, top):
                assert [index.doc_ids[r] for r in rows] == [d for d, _ in reference_search(docs, q, k)]
        if n_rows > TILE:
            assert list(top[0][:2]) == [TILE - 1, TILE]

    def test_score_block_is_reused_by_the_next_call(self):
        index = _int_index([[1, 0], [0, 1], [1, 1]])
        first, _ = index.search(np.array([[1.0, 0.0], [0.0, 1.0]]), 1)
        assert first.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        second, _ = index.search(np.array([[2.0, 0.0]]), 1)
        assert second.tolist() == [[2.0, 0.0, 2.0]]
        assert np.shares_memory(first, second) and first[0].tolist() == [2.0, 0.0, 2.0]

    @given(st.integers(1, 40), st.integers(1, 12), st.integers(1, 5),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_bruteforce_oracle(self, n_docs, k, n_queries, seed):
        rng = np.random.default_rng(seed)
        doc_ids = [f"doc{i:03d}" for i in range(n_docs)]
        vectors = rng.standard_normal((n_docs, 6))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        queries = rng.standard_normal((n_queries, 6))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        index = VectorIndex.build(_batches(doc_ids, vectors))
        scores, top = index.search(queries, k)
        assert scores.shape == (n_queries, n_docs)
        for q, row_scores, rows in zip(queries, scores, top):
            expected = reference_search(list(zip(doc_ids, vectors)), q, k)
            assert [index.doc_ids[r] for r in rows] == [e[0] for e in expected]
            for r, (_, want_score) in zip(rows, expected):
                assert row_scores[r] == pytest.approx(want_score, abs=1e-9)

    @given(
        hnp.arrays(np.int64, st.tuples(st.integers(1, 30), st.integers(1, 3)),
                   elements=st.integers(-2, 2)),
        st.integers(1, 4), st.integers(1, 12), st.integers(0, 2**32 - 1),
    )
    @example(np.array([[1], [2], [1], [1], [0]]), 1, 3, 0)  # rank 2-4 tie at score 1
    @settings(max_examples=200, deadline=None)
    def test_ties_straddling_rank_k_match_oracle(self, matrix, n_queries, k, seed):
        # Integer rows and queries make every score exact, so equal scores
        # are real ties, and the tie group at rank k must go to the lowest ids.
        rng = np.random.default_rng(seed)
        queries = rng.integers(-2, 3, (n_queries, matrix.shape[1]))
        queries[0] = 1  # at least one query sees rows of equal sums tie
        index = _int_index(matrix)
        scores, top = index.search(queries.astype(float), k)
        docs = list(zip(index.doc_ids, matrix))
        for q, row_scores, rows in zip(queries, scores, top):
            expected = reference_search(docs, q, k)
            assert [index.doc_ids[r] for r in rows] == [e[0] for e in expected]
            assert [row_scores[r] for r in rows] == [e[1] for e in expected]


class _TableProvider:
    """Exact text -> vector table for hand-computed fixtures."""

    def __init__(self, table):
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}

    def embed_batch(self, texts):
        return [self.table[t] for t in texts]


class _IntProvider:
    """Small-integer vectors from a hash of each text; counts its calls."""

    def __init__(self, dim):
        self.dim = dim
        self.calls = 0

    def embed_batch(self, texts):
        self.calls += 1
        return [np.array([b % 5 - 2 for b in hashlib.blake2b(t.encode()).digest()[:self.dim]],
                         dtype=float) for t in texts]


_WORDS = ["", " ", "alpha", "beta", "gamma", "delta"]
_keyword_sets = st.builds(KeywordSet, st.sampled_from(_WORDS),
                          st.lists(st.sampled_from(_WORDS[2:]), max_size=3))


class TestTwoStepRetrieve:
    def _fixture(self):
        ks = KeywordSet("T", ["c"])
        provider = _TableProvider({"T": [1.0, 0.0], "T c": [0.6, 0.8]})
        index = VectorIndex.build([_batch(("d1", 1.0, 0.0), ("d2", 0.0, 1.0), ("d3", 0.8, 0.6))])
        return ks, provider, index

    def test_hand_computed_scores(self):
        ks, provider, index = self._fixture()
        (results,) = two_step_retrieve([ks], index, provider, RetrievalConfig())
        assert [r.doc_id for r in results] == ["d3", "d1"]
        by_id = {r.doc_id: r for r in results}
        assert by_id["d3"].s_final == pytest.approx(0.88, abs=1e-9)
        assert by_id["d1"].s_final == pytest.approx(0.80, abs=1e-9)
        for r in results:
            assert r.s_final == pytest.approx((r.s_title + r.s_full) / 2, abs=1e-9)
            assert r.s_final >= 0.75

    def test_threshold_filters(self):
        ks, provider, index = self._fixture()
        (results,) = two_step_retrieve([ks], index, provider, RetrievalConfig())
        assert "d2" not in [r.doc_id for r in results]  # s_final = 0.40

    def test_cap_respected(self):
        ks, provider, index = self._fixture()
        cfg = RetrievalConfig(max_results=1)
        (results,) = two_step_retrieve([ks], index, provider, cfg)
        assert [r.doc_id for r in results] == ["d3"]

    def test_empty_keywords_tallied(self):
        tally = RetrievalTally()
        provider = _TableProvider({})
        out = two_step_retrieve([KeywordSet("")], VectorIndex.build([]), provider,
                                RetrievalConfig(), tally)
        assert out == [[]]
        assert tally.empty_keyword_sets == 1

    def test_candidate_pool_k_must_be_positive(self):
        with pytest.raises(ValueError) as err:
            RetrievalConfig(candidate_pool_k=0)
        assert "candidate_pool_k" in str(err.value)

    @pytest.mark.parametrize("settings, field", [
        (dict(provider="file"), "cache_path"),
        (dict(provider="wire"), "endpoint"),
        (dict(provider="remote"), "provider"),
    ], ids=["file", "wire", "unknown"])
    def test_provider_settings_required(self, settings, field):
        with pytest.raises(ValueError) as err:
            RetrievalConfig(**settings)
        assert str(err.value).startswith(f"{field}: ")

    def test_pool_monotonicity(self):
        rng = np.random.default_rng(11)
        vectors = rng.standard_normal((200, 4))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        index = VectorIndex.build(_batches([f"d{i:03d}" for i in range(200)], vectors))
        provider = MockEmbeddingProvider(dim=4, seed=2)
        ks = KeywordSet("query title", ["kw one", "kw two"])
        # Non-binding cap: enlarging the pool may only add results.
        results = {}
        for pool_k in (5, 20, 80):
            cfg = RetrievalConfig(threshold=0.0, max_results=10_000,
                                  candidate_pool_k=pool_k)
            (found,) = two_step_retrieve([ks], index, provider, cfg)
            results[pool_k] = {r.doc_id: r.s_final for r in found}
        assert results[5].keys() <= results[20].keys() <= results[80].keys()
        for doc_id, score in results[5].items():
            assert results[80][doc_id] == pytest.approx(score, abs=1e-12)

    @given(
        hnp.arrays(np.int64, st.tuples(st.integers(1, 25), st.just(3)),
                   elements=st.integers(-2, 2)),
        st.lists(_keyword_sets, min_size=1, max_size=4),
        st.lists(_keyword_sets, min_size=1, max_size=4),
        st.sampled_from([0.0, 0.5, 1.0]), st.integers(1, 4), st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_group_equals_one_set_at_a_time(self, matrix, head, tail, threshold,
                                            max_results, pool_k):
        # Exact integer scores: grouping must change neither results nor tallies.
        index = _int_index(matrix)
        provider = _IntProvider(3)
        cfg = RetrievalConfig(threshold=threshold, max_results=max_results,
                              candidate_pool_k=pool_k)
        kss = [*head, KeywordSet(""), *tail]
        grouped_tally, single_tally = RetrievalTally(), RetrievalTally()
        grouped = two_step_retrieve(kss, index, provider, cfg, grouped_tally)
        single = [two_step_retrieve([ks], index, provider, cfg, single_tally)[0]
                  for ks in kss]
        assert grouped == single
        assert grouped_tally == single_tally
        assert grouped_tally.articles_queried == len(kss)

    def test_group_makes_one_provider_call(self):
        index = _int_index([[1, 0, 0], [0, 1, 0]])
        provider = _IntProvider(3)
        kss = [KeywordSet("alpha"), KeywordSet(""), KeywordSet("beta", ["gamma"])]
        two_step_retrieve(kss, index, provider, RetrievalConfig())
        assert provider.calls == 1
        two_step_retrieve([KeywordSet(""), KeywordSet(" ")], index, provider,
                          RetrievalConfig())
        assert provider.calls == 1  # no non-empty set, no call


class TestPseudoPair:
    def test_fan_out(self):
        art = _article("target text", title="Thema", page_id=42)
        corpus = {"docA": "First line\nbody", "docB": "Only line"}
        pairs = [pseudo_pair(art, doc_id, corpus[doc_id]) for doc_id in ("docA", "docB")]
        assert len(pairs) == 2
        assert all(p.text_l == "target text" for p in pairs)
        assert all(p.origin == "web" for p in pairs)
        assert pairs[0].title_en == "First line"
        assert pairs[0].text_en == "First line\nbody"
        assert pairs[0].pair.id_l == 42
        assert pairs[0].pair.id_en != pairs[1].pair.id_en

    def test_title_is_first_nonblank_line_else_doc_id(self):
        assert pseudo_pair(_article("t"), "docA", "\n  Heading \nbody").title_en == "Heading"
        assert pseudo_pair(_article("t"), "docA", "   ").title_en == "docA"


class TestCandidateCorpus:
    @pytest.mark.parametrize("bad", ['[1, 2]', '"text"', 'null', '{"id": "b"}', '{"id":',
                                     '{"id": "b", "text": null}', '{"id": "b", "text": 3}',
                                     '{"id": true, "text": "beta"}', '{"id": 1.5, "text": "beta"}',
                                     '{"id": null, "text": "beta"}', '{"id": ["b"], "text": "beta"}'])
    def test_bad_line_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "web.jsonl"
        path.write_text('{"id": 7, "text": "alpha"}\n' + bad + "\n")  # an integer id is kept
        docs = read_candidate_corpus(path)
        assert next(docs) == ("7", "alpha")
        with pytest.raises(RetrievalError) as err:
            next(docs)
        assert str(err.value).startswith(f"{path}:2: bad corpus record")
