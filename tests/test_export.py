"""Validation split, shard writer/reader, and statistics tests."""

import json
import random
import struct
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlpack.alignment import ArticlePair, PairId
from xlpack.export import (
    ContextEntry,
    CorpusStats,
    ShardError,
    SplitConfig,
    compute_stats,
    config_digest,
    encode_window_record,
    iter_shard_records,
    read_shards,
    sum_tokens,
    validation_set,
    write_shards,
)
from xlpack.packing import EN_FIRST, PackConfig, pack_pair
from xlpack.tokenization import WhitespaceTokenizer


class TestSplitValidation:
    def test_exact_count_fraction_seed(self):
        val = validation_set(10_000, SplitConfig(0.001, 32))
        assert len(val) == 10
        assert val <= set(range(10_000))

    def test_pinned_choice(self):
        # A changed shuffle would move contexts between the splits of every
        # shard set made before it.
        assert validation_set(10_000, SplitConfig(0.001, 32)) == {
            530, 3630, 4150, 4630, 5103, 5470, 7124, 7390, 7829, 7983}

    def test_fraction_zero(self):
        assert validation_set(50, SplitConfig(0.0, 32)) == set()

    def test_same_seed_same_membership(self):
        val1 = validation_set(1000, SplitConfig(0.01, 32))
        val2 = validation_set(1000, SplitConfig(0.01, 32))
        assert val1 == val2
        val3 = validation_set(1000, SplitConfig(0.01, 33))
        assert val1 != val3

    @given(st.integers(0, 5000), st.floats(0.0, 0.999), st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_sizes_and_partition(self, count, fraction, seed):
        val = validation_set(count, SplitConfig(fraction, seed))
        assert len(val) == int(count * fraction)
        assert val <= set(range(count))

    def test_small_corpus_yields_empty_validation(self):
        assert validation_set(100, SplitConfig(0.001, 32)) == set()

    def test_fraction_range_validated(self):
        with pytest.raises(ValueError):
            SplitConfig(validation_fraction=1.0)


def _write(tmp_path, windows, **kw):
    defaults = dict(
        config_digest="cafe",
        tokenizer_kind="whitespace",
        n_budget=16,
        per_language_tokens={"en": 1},
        seed=32,
        split="train",
    )
    defaults.update(kw)
    return write_shards(windows, tmp_path, **defaults)


class TestShards:
    def test_record_byte_layout(self):
        assert encode_window_record([0]) == bytes([1, 0, 0, 0, 0, 0, 0, 0])
        # u32-LE count, then u32-LE ids, whatever the host byte order.
        ids = [0, 1, 258, 2**32 - 1]
        assert encode_window_record(ids) == struct.pack("<5I", 4, *ids)
        assert encode_window_record([]) == struct.pack("<I", 0)

    @given(records=st.lists(
        st.lists(st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)),
                 max_size=20),
        max_size=10,
    ))
    @settings(max_examples=60, deadline=None)
    def test_record_round_trip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("records") / "records.bin"
        path.write_bytes(b"".join(encode_window_record(ids) for ids in records))
        assert [ids.tolist() for ids in iter_shard_records(path)] == records

    def test_empty_stream(self, tmp_path):
        manifest = _write(tmp_path, [])
        assert manifest.window_count == 0
        assert list(tmp_path.glob("windows-*.bin")) == []
        assert list(read_shards(tmp_path)) == []

    @given(
        windows=st.lists(
            st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=20),
            min_size=0,
            max_size=25,
        ),
        max_bytes=st.sampled_from([32, 4096]),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, tmp_path_factory, windows, max_bytes):
        out = tmp_path_factory.mktemp("shards")
        _write(out, windows, shard_max_bytes=max_bytes)
        back = [w.ids for w in read_shards(out)]
        assert back == windows

    def test_rolls_files_at_cap(self, tmp_path):
        windows = [[7] * 10] * 4
        _write(tmp_path, windows, shard_max_bytes=50)  # each record is 44 bytes
        files = sorted(p.name for p in tmp_path.glob("windows-*.bin"))
        assert files == [f"windows-{k:05d}.bin" for k in range(4)]

    def test_byte_determinism(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1704067200")
        windows = [[1, 2, 3], [4, 5]]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert _write(a, windows).created_at == "2024-01-01T00:00:00Z"
        _write(b, windows)
        for name in ("windows-00000.bin", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_contents(self, tmp_path):
        manifest = _write(tmp_path, [[1, 2, 0]])
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["window_count"] == 1
        assert data["token_total"] == 3
        assert data["split"] == "train"
        assert data["seed"] == 32
        assert data["config_digest"] == manifest.config_digest == "cafe"

    def test_count_mismatch_detected(self, tmp_path):
        _write(tmp_path, [[1, 2, 0]])
        data = json.loads((tmp_path / "manifest.json").read_text())
        data["window_count"] = 5
        (tmp_path / "manifest.json").write_text(json.dumps(data))
        with pytest.raises(ShardError) as err:
            list(read_shards(tmp_path))
        assert "window_count" in str(err.value)

    def test_truncated_record_names_file_and_offset(self, tmp_path):
        # Cut inside the last id, then at an id boundary.
        for cut in (2, 4):
            _write(tmp_path, [[1, 2, 0]])
            shard = tmp_path / "windows-00000.bin"
            shard.write_bytes(shard.read_bytes()[:-cut])
            with pytest.raises(ShardError) as err:
                list(read_shards(tmp_path))
            assert "windows-00000.bin" in str(err.value)
            assert "truncated record at offset 0" in str(err.value)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ShardError):
            list(read_shards(tmp_path))

    def test_token_id_over_u32_rejected(self):
        for bad in (2**32, -1):
            with pytest.raises(ShardError):
                encode_window_record([5, bad])


class TestConfigDigest:
    def test_stable_and_order_insensitive(self):
        a = config_digest({"x": 1, "y": {"z": [1, 2]}})
        b = config_digest({"y": {"z": [1, 2]}, "x": 1})
        assert a == b
        assert config_digest({"x": 2}) != a


def _entry(title_en, text_en, title_l, text_l, origin="wiki", tok=None):
    """Index entry of the one context pack_pair makes of a pair, with counts
    from PackedContext.encode."""
    tok = tok or WhitespaceTokenizer()
    pair = ArticlePair(PairId(1, 2), title_en, title_l, text_en, text_l, "xx", origin)
    (ctx,) = pack_pair(pair, tok, PackConfig(n_budget=64), EN_FIRST)
    ids, per_language = ctx.encode(tok)
    return ContextEntry(ctx.origin, len(ids), per_language)


class TestComputeStats:
    def test_single_context_attribution(self):
        entry = _entry("T", "a b c d e", "U", "p q r")
        assert entry.token_len == 11
        stats = compute_stats([entry])
        assert stats.sources == {"wiki": {"en": 6, "xx": 4}}
        assert stats.control_tokens == 1

    def test_empty_corpus(self):
        stats = compute_stats([])
        assert stats.sources == {} and stats.control_tokens == 0

    def test_two_row_per_source_shape(self):
        tok = WhitespaceTokenizer()
        entries = [
            _entry("T", "a", "U", "b", origin="wiki", tok=tok),
            _entry("T", "c", "U", "d e", origin="web", tok=tok),
        ]
        data = asdict(compute_stats(entries))
        assert set(data["sources"]) == {"wiki", "web"}
        assert set(data["sources"]["wiki"]) == {"en", "xx"}
        assert data["control_tokens"] == 2

    def test_sum_tokens_totals_every_language(self):
        tok = WhitespaceTokenizer()
        entries = [
            _entry("T", "a b", "U", "c", origin="wiki", tok=tok),
            _entry("T", "d", "U", "e f g", origin="web", tok=tok),
        ]
        assert sum_tokens(entries) == {"en": 5, "xx": 6}
        assert sum_tokens([]) == {}
        assert compute_stats(entries).sources == {
            "wiki": sum_tokens(entries[:1]), "web": sum_tokens(entries[1:])}
