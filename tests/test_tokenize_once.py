"""Pack encodes each context once; later stages trust only matching ids.

The shard digests below were recorded from a build whose slide stage
re-tokenized the packed text; a pipeline that encodes each context once in
pack must reproduce them exactly. Slide and stats must run with a tokenizer
that refuses to work, and slide must refuse a contexts.bin that disagrees
with the context index.
"""

import hashlib
import json

import pytest

from xlpack.cli import EXIT_INPUT, EXIT_OK, EXIT_STAGE, run
from xlpack.export import encode_window_record, iter_shard_records
from xlpack.synth import build_corpus
from xlpack.tokenization import Tokenizer

from .test_cli import make_config

SHARD_DIGESTS = {
    "en_first": {
        "train/windows-00000.bin": "99fa3d36024c6657188ad037b61413599268823543bb7685544d161fe1ef648a",
        "validation/windows-00000.bin": "dc130af46f3132b69cf4029c58b137a8e4e028659b506e14d644bab457fd0f7c",
    },
    "mix": {
        "train/windows-00000.bin": "396f403051a21fd920db76a20a5ef068032dbb3391d93b450ae44c8556ff12ca",
        "validation/windows-00000.bin": "6154341c271b9c232edc9bdc0d3926e1f5ecaf9a958d542db235f3c0c1232136",
    },
}


def _configured(tmp_path, policy):
    corpus = build_corpus(tmp_path / "data", n_pairs=40, seed=11)
    return make_config(tmp_path, corpus, extra={
        "pack.direction_policy": policy,
        "split.validation_fraction": 0.1,
    })


@pytest.mark.parametrize("policy", sorted(SHARD_DIGESTS))
def test_shard_digests_pinned(tmp_path, monkeypatch, policy):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    cfg_path = _configured(tmp_path, policy)
    assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
    shards = tmp_path / "out" / "shards"
    digests = {
        str(p.relative_to(shards)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(shards.glob("*/windows-*.bin"))
    }
    assert digests == SHARD_DIGESTS[policy]


def test_slide_and_stats_never_tokenize(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    cfg_path = _configured(tmp_path, "mix")
    for sub in ("align", "pack"):
        assert run([sub, "--config", str(cfg_path)]) == EXIT_OK, sub

    def refuse(self, text):
        raise AssertionError("tokenizer called after pack")

    monkeypatch.setattr(Tokenizer, "encode", refuse)
    monkeypatch.setattr(Tokenizer, "count", refuse)
    for sub in ("slide", "export", "stats"):
        assert run([sub, "--config", str(cfg_path)]) == EXIT_OK, sub


@pytest.fixture
def packed(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    cfg_path = _configured(tmp_path, "en_first")
    for sub in ("align", "pack"):
        assert run([sub, "--config", str(cfg_path)]) == EXIT_OK, sub
    return tmp_path / "out", cfg_path


def _rewrite(path, records):
    path.write_bytes(b"".join(encode_window_record(ids) for ids in records))


def test_index_matches_ids(packed):
    out, _ = packed
    index = [json.loads(line) for line in (out / "contexts.jsonl").read_text().splitlines()]
    records = list(iter_shard_records(out / "contexts.bin"))
    assert [e["token_len"] for e in index] == [len(ids) for ids in records]
    for entry in index:
        assert sum(entry["per_language_tokens"].values()) == entry["token_len"] - 1


def test_slide_refuses_dropped_record(packed, capsys):
    out, cfg_path = packed
    records = list(iter_shard_records(out / "contexts.bin"))
    _rewrite(out / "contexts.bin", records[:-1])
    assert run(["slide", "--config", str(cfg_path)]) == EXIT_STAGE
    err = capsys.readouterr().err
    assert f"{len(records) - 1} records" in err and f"{len(records)} lines" in err
    assert not (out / "shards").exists()
    assert not (out / "windows_meta.json").exists()


def test_slide_refuses_resized_record(packed, capsys):
    out, cfg_path = packed
    records = list(iter_shard_records(out / "contexts.bin"))
    length = len(records[3])
    records[3] = records[3][1:]
    _rewrite(out / "contexts.bin", records)
    assert run(["slide", "--config", str(cfg_path)]) == EXIT_STAGE
    err = capsys.readouterr().err
    assert f"record 3 holds {length - 1} tokens" in err and f"token_len is {length}" in err
    assert not (out / "shards").exists()


def test_slide_missing_ids_file(packed):
    out, cfg_path = packed
    (out / "contexts.bin").unlink()
    assert run(["slide", "--config", str(cfg_path)]) == EXIT_INPUT
    assert not (out / "shards").exists()


def test_slide_refuses_text_contexts_file(packed, capsys):
    out, cfg_path = packed
    line = {"pair": [1, 2], "seq_index": 0, "direction": "en_first", "origin": "wiki",
            "token_len": 3, "segments": [["en", "title", "T"]]}
    (out / "contexts.jsonl").write_text(json.dumps(line) + "\n")
    assert run(["slide", "--config", str(cfg_path)]) == EXIT_STAGE
    assert "not a context index line" in capsys.readouterr().err
