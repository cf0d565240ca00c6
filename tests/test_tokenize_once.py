"""Pack encodes each context once; later stages trust only matching ids.

The shard digests below were recorded from a build whose slide stage
re-tokenized the packed text; a pipeline that encodes each context once in
pack must reproduce them exactly. Slide and stats must run with a tokenizer
that refuses to work, and slide must refuse a contexts.bin that disagrees
with the context index.
"""

import hashlib
import json
import re
from collections import Counter

import pytest

from xlpack.alignment import ArticleStore, join_articles, load_pair_map
from xlpack.cli import EXIT_INPUT, EXIT_OK, EXIT_STAGE, run
from xlpack.export import encode_window_record, iter_shard_records
from xlpack.packing import split_paragraphs
from xlpack.report import read_events
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


# The other slide settings over the en_first corpus, recorded before slide
# planned windows as token ranges: (extra CLI args, train and validation
# digests of windows-00000.bin).
SLIDE_DIGESTS = {
    "standard": (["--set", "slide.kind=standard"], (
        "723f79d70a0b0866ae0e36d0db4ced068371f57cea504c8b0768b3913f20002d",
        "b5107e85f281395ec43bbd2f0c5d7b16cae1ffb011742d411715438d16222ee8",
    )),
    "standard_drop_partial": (
        ["--set", "slide.kind=standard", "--set", "slide.keep_final_partial=false"], (
            "b32d50c14c56aa4943e66e087071de354dd41603f69f3c714b566eb1b629a8a1",
            "26934c6fd410e8d85ea7468aae8599b4a795963925180d93acc9b9e807f4adb0",
        )),
    "lossy": (["--set", "slide.kind=lossy"], (
        "c1fc877977879c8a82b1b03f5626e43d3e76a792fd9e46b752bbb40caff98dc2",
        "188561c43f23c59f9aad7e64069f2d31eec6d513cba4d0f87d497d66609d6c98",
    )),
}


@pytest.mark.parametrize("setting", sorted(SLIDE_DIGESTS))
def test_slide_policy_digests_pinned(tmp_path, monkeypatch, setting):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    args, (train, validation) = SLIDE_DIGESTS[setting]
    cfg_path = _configured(tmp_path, "en_first")
    assert run(["all", "--config", str(cfg_path), *args]) == EXIT_OK
    shards = tmp_path / "out" / "shards"
    digests = {
        str(p.relative_to(shards)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(shards.glob("*/windows-*.bin"))
    }
    assert digests == {"train/windows-00000.bin": train,
                       "validation/windows-00000.bin": validation}


def test_slide_and_stats_never_tokenize(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    cfg_path = _configured(tmp_path, "mix")
    for sub in ("align", "pack"):
        assert run([sub, "--config", str(cfg_path)]) == EXIT_OK, sub

    def refuse(self, arg):
        raise AssertionError("tokenizer called after pack")

    # Every kind, since a kind may override any step.
    kinds = [Tokenizer, *Tokenizer.__subclasses__()]
    assert {k.kind for k in kinds} == {"base", "whitespace", "byte", "external"}
    for kind in kinds:
        for step in ("encode", "count", "pieces", "ids"):
            monkeypatch.setattr(kind, step, refuse)
    for sub in ("slide", "export", "stats"):
        assert run([sub, "--config", str(cfg_path)]) == EXIT_OK, sub


def test_pack_tokenizes_each_text_once(tmp_path, monkeypatch):
    """pieces runs once per title and paragraph of every joined pair, plus
    twice per truncated paragraph (the delimiter's cost and the shortened
    text); ids runs once per context; encode and count never run."""
    corpus = build_corpus(tmp_path / "data", n_pairs=20, seed=5)
    cfg_path = make_config(tmp_path, corpus, n_budget=10)
    assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
    out = tmp_path / "out"
    with ArticleStore(corpus.articles_en, "en") as store_en, \
            ArticleStore(corpus.articles_l, corpus.lang) as store_l:
        pairs = list(join_articles(load_pair_map(out / "pairs.tsv"), store_en, store_l))
    paragraphs = sum(len(split_paragraphs(p.text_en)) + len(split_paragraphs(p.text_l))
                     for p in pairs)

    calls = Counter()

    def counted(step, method):
        def wrapper(self, *args):
            calls[step] += 1
            return method(self, *args)
        return wrapper

    for kind in [Tokenizer, *Tokenizer.__subclasses__()]:
        for step in ("pieces", "ids", "encode", "count", "truncate_to_tokens"):
            if step in vars(kind):
                monkeypatch.setattr(kind, step, counted(step, vars(kind)[step]))
    assert run(["pack", "--config", str(cfg_path)]) == EXIT_OK
    (done,) = [e for e in read_events(out / "run_report.jsonl") if e.get("stage") == "pack"]
    truncated = done["packing"]["truncated_paragraphs"]
    assert truncated > 0 and len(pairs) == 20
    assert calls["pieces"] == 2 * len(pairs) + paragraphs + 2 * truncated
    assert calls["truncate_to_tokens"] == truncated
    assert calls["ids"] == done["context_count"] > len(pairs)
    assert calls["encode"] == calls["count"] == 0


def test_pack_refuses_context_over_budget(tmp_path, monkeypatch, capsys):
    corpus = build_corpus(tmp_path / "data", n_pairs=20, seed=5)
    cfg_path = make_config(tmp_path, corpus, n_budget=10)
    assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
    # Without truncation an oversize paragraph's context overruns the budget.
    monkeypatch.setattr(Tokenizer, "truncate_to_tokens", lambda self, text, keep: text)
    assert run(["pack", "--config", str(cfg_path)]) == EXIT_STAGE
    err = capsys.readouterr().err
    assert re.search(r"pair \[\d+, \d+\] seq_index \d+: \d+ tokens, planned \d+, "
                     r"budget is 10", err)
    assert not (tmp_path / "out" / "contexts.jsonl").exists()
    assert not (tmp_path / "out" / "contexts.bin").exists()


# Pack output under the two other tokenizer kinds, at budgets small enough
# that oversize paragraphs are truncated: (n_budget, longest context, digests).
# The external vocabulary covers only some words, so the rest map to <unk>
# (id 1).
#
# The byte kind prices the segment delimiter as 2 tokens, so a truncated
# paragraph keeps n_budget - 3 bytes and its context holds at most n_budget
# tokens. The byte digests changed, on purpose, when truncation began to
# count the delimiter: before, those contexts held 65 or 66 tokens, slide
# refused them, and only those contexts' records and index lines differ.
#
# The contexts.jsonl digests changed when the index dropped the pair,
# seq_index and direction keys: each is the digest of the earlier six-key
# file with every line cut down to origin, per_language_tokens and token_len
# and dumped again with ensure_ascii=False and sort_keys=True.
PACK_DIGESTS = {
    "byte": (64, 64, {
        "contexts.bin": "30402b2ebca00405a780c28964d280ff627acfc7295023190574090a2168c1e2",
        "contexts.jsonl": "1dddcdf50c7fd353b942b298d62d9a3d04b181c0a47e22590d30bd79dec77fa2",
    }),
    "external": (10, 10, {
        "contexts.bin": "5eb9b3bb75a99cd49932a9917016b8d239d94a49d84fd65e5f64db07f771a121",
        "contexts.jsonl": "677e3830fb05d8b0e141531fd9cace5ce759a85021d7c64628d107e278638f85",
    }),
}


def _partial_vocab(path):
    lines = ["<unk>\t1", "Topic\t5000", "Thema\t5001"]
    lines += [f"en{k}\t{k + 2}" for k in range(0, 2000, 2)]
    lines += [f"xx{k}\t{k + 3}" for k in range(0, 2000, 3)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("kind", sorted(PACK_DIGESTS))
def test_pack_digests_pinned(tmp_path, monkeypatch, kind):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    n_budget, longest, expected = PACK_DIGESTS[kind]
    extra = {"tokenizer.kind": kind}
    if kind == "external":
        extra["tokenizer.vocab_source"] = str(_partial_vocab(tmp_path / "partial.vocab"))
    corpus = build_corpus(tmp_path / "data", n_pairs=40, seed=11)
    cfg_path = make_config(tmp_path, corpus, n_budget=n_budget, extra=extra)
    for sub in ("align", "pack"):
        assert run([sub, "--config", str(cfg_path)]) == EXIT_OK, sub
    out = tmp_path / "out"
    (done,) = [e for e in read_events(out / "run_report.jsonl") if e.get("stage") == "pack"]
    assert done["packing"]["truncated_paragraphs"] > 0
    if kind == "external":
        assert any(1 in ids for ids in iter_shard_records(out / "contexts.bin"))
    with open(out / "contexts.jsonl", encoding="utf-8") as f:
        assert max(json.loads(line)["token_len"] for line in f) == longest
    # slide consumes contexts.bin, so it is hashed first.
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected}
    assert digests == expected
    # slide refuses a context over the budget, so it must accept these.
    assert run(["slide", "--config", str(cfg_path)]) == EXIT_OK


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


@pytest.mark.parametrize("args", [[], ["--set", "slide.kind=standard"],
                                  ["--set", "slide.kind=lossy"]],
                         ids=["optimized", "standard", "lossy"])
@pytest.mark.parametrize("damage", ["no_split", "interior_split"])
def test_slide_refuses_malformed_record(packed, capsys, args, damage):
    """Every policy checks each record, including validation record 19; the
    record keeps its length, so only the context rules can catch it."""
    out, cfg_path = packed
    records = list(iter_shard_records(out / "contexts.bin"))
    if damage == "no_split":
        records[-1][-1] = 7
        expected = f"context {len(records) - 1} lacks the terminal split token"
    else:
        records[19][0] = 0
        expected = "context 19 contains an interior split token"
    _rewrite(out / "contexts.bin", records)
    assert run(["slide", "--config", str(cfg_path), *args]) == EXIT_STAGE
    assert expected in capsys.readouterr().err
    assert not (out / "shards").exists()


def test_slide_missing_ids_file(packed, capsys):
    out, cfg_path = packed
    (out / "contexts.bin").unlink()
    assert run(["slide", "--config", str(cfg_path)]) == EXIT_INPUT
    assert "contexts.bin: not found; run pack first" in capsys.readouterr().err
    assert not (out / "shards").exists()


def test_slide_refuses_text_contexts_file(packed, capsys):
    out, cfg_path = packed
    line = {"pair": [1, 2], "seq_index": 0, "direction": "en_first", "origin": "wiki",
            "token_len": 3, "segments": [["en", "title", "T"]]}
    (out / "contexts.jsonl").write_text(json.dumps(line) + "\n")
    assert run(["slide", "--config", str(cfg_path)]) == EXIT_STAGE
    assert "not a context index line" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["slide", "stats"])
def test_truncated_index_names_file_and_line(packed, capsys, sub):
    # A killed pack can leave the index's last line cut off.
    out, cfg_path = packed
    text = (out / "contexts.jsonl").read_text()
    lines = text.count("\n")
    (out / "contexts.jsonl").write_text(text[:-20])
    assert run([sub, "--config", str(cfg_path)]) == EXIT_STAGE
    err = capsys.readouterr().err
    assert f"contexts.jsonl:{lines}: not a context index line; rerun pack" in err


@pytest.mark.parametrize("sub", ["slide", "stats"])
def test_six_key_index_names_file_and_line(packed, capsys, sub):
    # An index written by an older pack also carries each context's pair,
    # seq_index and direction; its lines are not ContextEntry fields.
    out, cfg_path = packed
    path = out / "contexts.jsonl"
    lines = [{"pair": [1, 2], "seq_index": 0, "direction": "en_first", **json.loads(line)}
             for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))
    assert run([sub, "--config", str(cfg_path)]) == EXIT_STAGE
    assert "contexts.jsonl:1: not a context index line; rerun pack" in capsys.readouterr().err
    assert not (out / "shards").exists() and not (out / "stats.json").exists()


@pytest.mark.parametrize("sub", ["slide", "stats"])
@pytest.mark.parametrize("key, value", [
    ("origin", 1),
    ("token_len", "3"),
    ("token_len", True),
    ("token_len", 0),
    ("per_language_tokens", [1]),
    ("per_language_tokens", {"en": "3"}),
    ("per_language_tokens", {"en": False}),
], ids=["origin_int", "token_len_str", "token_len_bool", "token_len_zero",
        "per_language_list", "per_language_str_count", "per_language_bool_count"])
def test_index_value_of_wrong_type_names_file_and_line(packed, capsys, sub, key, value):
    out, cfg_path = packed
    path = out / "contexts.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), key: value}, sort_keys=True) + "\n"
    path.write_text("".join(lines))
    assert run([sub, "--config", str(cfg_path)]) == EXIT_STAGE
    assert "contexts.jsonl:2: not a context index line; rerun pack" in capsys.readouterr().err
    assert not (out / "shards").exists() and not (out / "stats.json").exists()
