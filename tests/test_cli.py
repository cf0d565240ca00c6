"""CLI and pipeline-stage tests over small synthetic corpora."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from xlpack.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, EXIT_STAGE, run
from xlpack.config import ConfigError, validate_config
from xlpack.export import read_shards
from xlpack.report import read_events
from xlpack.synth import (
    build_corpus,
    write_articles_jsonl,
    write_langlinks_dump,
    write_pages_dump,
    write_web_corpus_jsonl,
)


def make_config(root: Path, corpus, n_budget=64, extra=None) -> Path:
    cfg = {
        "language_l": corpus.lang,
        "paths": {
            "langlinks_l_to_en": str(corpus.langlinks_l_to_en),
            "langlinks_en_to_l": str(corpus.langlinks_en_to_l),
            "pages_en": str(corpus.pages_en),
            "pages_l": str(corpus.pages_l),
            "articles_en": str(corpus.articles_en.parent),
            "articles_l": str(corpus.articles_l.parent),
            "output_dir": str(root / "out"),
        },
        "pack": {"n_budget": n_budget},
        "slide": {"n_budget": n_budget},
    }
    if extra:
        for key, value in extra.items():
            node = cfg
            parts = key.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = value
    path = root / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


@pytest.fixture
def small_run(tmp_path):
    corpus = build_corpus(tmp_path / "data", n_pairs=25, seed=3)
    cfg_path = make_config(tmp_path, corpus)
    return tmp_path, corpus, cfg_path


def _tree_bytes(root: Path, skip=("run_report.jsonl",)) -> dict[str, bytes]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in skip:
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


class TestExitCodes:
    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "xlpack.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "align" in proc.stdout and "export" in proc.stdout

    def test_missing_config_file(self, tmp_path):
        assert run(["align", "--config", str(tmp_path / "nope.json")]) == EXIT_INPUT

    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["align", "--config", str(bad)]) == EXIT_CONFIG

    def test_budget_mismatch_names_both_fields(self, small_run, capsys):
        _, _, cfg_path = small_run
        code = run(["pack", "--config", str(cfg_path), "--set", "slide.n_budget=32"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "pack.n_budget" in err and "slide.n_budget" in err

    def test_threshold_out_of_range(self, small_run, capsys):
        _, _, cfg_path = small_run
        code = run(["align", "--config", str(cfg_path),
                    "--set", "retrieval.threshold=1.5"])
        assert code == EXIT_CONFIG
        assert "retrieval.threshold" in capsys.readouterr().err

    def test_missing_input_path(self, small_run, capsys):
        tmp_path, _, cfg_path = small_run
        code = run(["align", "--config", str(cfg_path),
                    "--set", "paths.pages_en=/nonexistent/pages.sql"])
        assert code == EXIT_INPUT
        assert "paths.pages_en" in capsys.readouterr().err

    def test_stage_failure_when_inputs_missing_for_stage(self, small_run):
        _, _, cfg_path = small_run
        # slide requires contexts.jsonl which pack has not produced yet
        assert run(["slide", "--config", str(cfg_path)]) == EXIT_INPUT


class TestValidateConfig:
    def test_minimal_valid_config(self, small_run):
        _, _, cfg_path = small_run
        cfg = validate_config(cfg_path)
        assert cfg.pack.n_budget == cfg.slide.n_budget == 64
        assert cfg.split.seed == 32 and cfg.split.validation_fraction == 0.001

    def test_mix_ratio_string(self, small_run):
        _, _, cfg_path = small_run
        cfg = validate_config(cfg_path, ["pack.mix_ratio=\"1:1\"",
                                         "pack.direction_policy=mix"])
        assert cfg.pack.mix_ratio == 0.5

    def test_diagnostics_carry_field_paths(self, small_run):
        _, _, cfg_path = small_run
        with pytest.raises(ConfigError) as err:
            validate_config(cfg_path, ["split.validation_fraction=2"])
        assert any("split.validation_fraction" in d for d in err.value.diagnostics)


class TestStages:
    def test_align_writes_sorted_pair_map(self, small_run):
        tmp_path, corpus, cfg_path = small_run
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        lines = (tmp_path / "out" / "pairs.tsv").read_text().splitlines()
        parsed = [tuple(map(int, l.split("\t"))) for l in lines]
        assert parsed == sorted(corpus.pair_ids)

    def test_pack_fixture_reports_two_contexts(self, tmp_path):
        # One pair, packed at budget 10, yields exactly two contexts.
        dumps = tmp_path / "dumps"
        dumps.mkdir()
        write_langlinks_dump(dumps / "l2en.sql", [(10, "en", "Cat")])
        write_langlinks_dump(dumps / "en2l.sql", [])
        write_pages_dump(dumps / "pages_en.sql", [(100, 0, "Cat", False)])
        write_pages_dump(dumps / "pages_l.sql", [(10, 0, "Gato", False)])
        write_articles_jsonl(tmp_path / "articles_en" / "a.jsonl",
                             [(100, "Cat", "a b c\n\nd e")])
        write_articles_jsonl(tmp_path / "articles_l" / "a.jsonl",
                             [(10, "Gato", "x y z w\n\nv u")])
        cfg = {
            "language_l": "es",
            "paths": {
                "langlinks_l_to_en": str(dumps / "l2en.sql"),
                "langlinks_en_to_l": str(dumps / "en2l.sql"),
                "pages_en": str(dumps / "pages_en.sql"),
                "pages_l": str(dumps / "pages_l.sql"),
                "articles_en": str(tmp_path / "articles_en"),
                "articles_l": str(tmp_path / "articles_l"),
                "output_dir": str(tmp_path / "out"),
            },
            "pack": {"n_budget": 10},
            "slide": {"n_budget": 10},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        assert run(["pack", "--config", str(cfg_path), "--emit-text"]) == EXIT_OK
        events = read_events(tmp_path / "out" / "run_report.jsonl")
        pack_events = [e for e in events if e.get("stage") == "pack"]
        assert pack_events[-1]["context_count"] == 2
        rendered = [
            json.loads(l)
            for l in (tmp_path / "out" / "contexts_text.jsonl").read_text().splitlines()
        ]
        assert [r["token_len"] for r in rendered] == [10, 7]
        assert rendered[0]["text"].endswith("[SPLIT]")
        assert rendered[0]["text"].startswith("Cat\n\na b c\n\nGato\n\nx y z w")

    def test_all_produces_consistent_artifacts(self, small_run, monkeypatch):
        tmp_path, _, cfg_path = small_run
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        out = tmp_path / "out"
        manifest = json.loads((out / "shards" / "train" / "manifest.json").read_text())
        meta = json.loads((out / "windows_meta.json").read_text())
        assert manifest["window_count"] == meta["splits"]["train"]["window_count"]
        stats = json.loads((out / "stats.json").read_text())
        assert set(stats["sources"]["wiki"]) == {"en", "xx"}
        events = read_events(out / "run_report.jsonl")
        assert events[-1]["event"] == "run_complete"
        assert events[-1]["tokens_per_s"] > 0

    def test_stage_isolation(self, small_run, monkeypatch):
        """Each subcommand runs standalone given prior stage outputs on disk."""
        tmp_path, _, cfg_path = small_run
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        for sub in ("align", "pack", "slide", "export", "stats"):
            assert run([sub, "--config", str(cfg_path)]) == EXIT_OK, sub
        assert (tmp_path / "out" / "shards" / "train" / "manifest.json").exists()

    def test_export_verifies_and_writes_nothing(self, small_run, monkeypatch):
        tmp_path, _, cfg_path = small_run
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        out = tmp_path / "out"
        assert list(out.glob("windows-*.bin")) == []
        before = _tree_bytes(out)
        assert run(["export", "--config", str(cfg_path)]) == EXIT_OK
        assert _tree_bytes(out) == before
        last = read_events(out / "run_report.jsonl")[-1]
        assert last["stage"] == "export"
        meta = json.loads((out / "windows_meta.json").read_text())
        assert last["train"] == meta["splits"]["train"]["window_count"]

    @pytest.mark.parametrize("damage", ["truncated_shard", "meta_count"])
    def test_export_refuses_damaged_shards(self, small_run, monkeypatch, capsys, damage):
        tmp_path, _, cfg_path = small_run
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        out = tmp_path / "out"
        if damage == "truncated_shard":
            shard = out / "shards" / "train" / "windows-00000.bin"
            shard.write_bytes(shard.read_bytes()[:-3])
            expected = "truncated record"
        else:
            meta_path = out / "windows_meta.json"
            meta = json.loads(meta_path.read_text())
            meta["splits"]["validation"]["window_count"] += 1
            meta_path.write_text(json.dumps(meta))
            expected = "the shards hold"
        assert run(["export", "--config", str(cfg_path)]) == EXIT_STAGE
        assert expected in capsys.readouterr().err

    def test_rerun_clears_stale_shards(self, small_run, monkeypatch):
        tmp_path, _, cfg_path = small_run
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        train = tmp_path / "out" / "shards" / "train"
        assert run(["all", "--config", str(cfg_path),
                    "--set", "shard_max_bytes=2000"]) == EXIT_OK
        assert len(list(train.glob("windows-*.bin"))) > 1
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        assert [p.name for p in train.glob("windows-*.bin")] == ["windows-00000.bin"]
        windows = list(read_shards(train))
        meta = json.loads((tmp_path / "out" / "windows_meta.json").read_text())
        assert len(windows) == meta["splits"]["train"]["window_count"]

    def test_idempotent_reruns_byte_identical(self, small_run, monkeypatch):
        tmp_path, _, cfg_path = small_run
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        first = _tree_bytes(tmp_path / "out")
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        second = _tree_bytes(tmp_path / "out")
        assert first == second

    def test_workers_do_not_change_bytes(self, small_run, monkeypatch):
        tmp_path, _, cfg_path = small_run
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert run(["all", "--config", str(cfg_path), "--workers", "1"]) == EXIT_OK
        single = _tree_bytes(tmp_path / "out")
        assert run(["all", "--config", str(cfg_path), "--workers", "4"]) == EXIT_OK
        multi = _tree_bytes(tmp_path / "out")
        assert single == multi

    def test_dump_tsv_debug_output(self, small_run):
        tmp_path, _, cfg_path = small_run
        assert run(["align", "--config", str(cfg_path), "--dump-tsv"]) == EXIT_OK
        tsv = tmp_path / "out" / "debug" / "langlinks_l_to_en.tsv"
        assert tsv.exists()
        first = tsv.read_text().splitlines()[0].split("\t")
        assert len(first) == 3 and first[1] == "en"

    def test_seed_flag_overrides_both_seeds(self, small_run):
        _, _, cfg_path = small_run
        cfg = validate_config(cfg_path, ["pack.seed=1", "split.seed=2"])
        assert (cfg.pack.seed, cfg.split.seed) == (1, 2)
        code = run(["align", "--config", str(cfg_path), "--seed", "7"])
        assert code == EXIT_OK


class TestRetrieveStage:
    def test_retrieve_emits_pseudo_pairs_and_all_packs_them(self, tmp_path, monkeypatch):
        corpus = build_corpus(tmp_path / "data", n_pairs=8, seed=5)
        # Web corpus: one doc per pair title so the mock provider gives
        # s_final = 1.0 for the exactly-matching keyword query.
        docs = [(f"web{k}", f"Topic {k}") for k in range(8)]
        web_path = write_web_corpus_jsonl(tmp_path / "data" / "web.jsonl", docs)
        cfg_path = make_config(
            tmp_path,
            corpus,
            extra={
                "paths.web_corpus": str(web_path),
                "retrieval.provider": "mock",
                "retrieval.dim": 12,
                "retrieval.threshold": 0.99,
            },
        )
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        out = tmp_path / "out"
        pseudo = [json.loads(l) for l in
                  (out / "pseudo_pairs.jsonl").read_text().splitlines()]
        # Every L article whose mapped title text equals a web doc retrieves it
        # with similarity 1.0 (same mock embedding for identical text).
        assert pseudo
        assert all(p["origin"] == "web" for p in pseudo)
        stats = json.loads((out / "stats.json").read_text())
        assert "web" in stats["sources"]

    def test_retrieve_requires_web_corpus(self, small_run):
        _, _, cfg_path = small_run
        code = run(["retrieve", "--config", str(cfg_path),
                    "--set", "retrieval.provider=mock"])
        assert code == EXIT_STAGE


class TestVariants:
    def test_gzip_dumps_through_pipeline(self, tmp_path, monkeypatch):
        corpus = build_corpus(tmp_path / "data", n_pairs=10, seed=4, compress=True)
        assert corpus.pages_en.suffix == ".gz"
        cfg_path = make_config(tmp_path, corpus)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        assert (tmp_path / "out" / "shards" / "train" / "manifest.json").exists()

    def test_standard_slide_policy(self, small_run, monkeypatch):
        tmp_path, _, cfg_path = small_run
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert run(["all", "--config", str(cfg_path),
                    "--set", "slide.kind=standard"]) == EXIT_OK
        meta = json.loads((tmp_path / "out" / "windows_meta.json").read_text())
        assert meta["policy"] == "standard"
        # Exact partition: all full windows except possibly the last.
        lengths = [len(w.ids) for w in read_shards(tmp_path / "out" / "shards" / "train")]
        assert len(lengths) == meta["splits"]["train"]["window_count"] > 1
        assert all(l == 64 for l in lengths[:-1])

    def test_discard_tails_flag(self, small_run, monkeypatch):
        tmp_path, _, cfg_path = small_run
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        meta_lossless = json.loads((tmp_path / "out" / "windows_meta.json").read_text())
        assert run(["all", "--config", str(cfg_path), "--discard-tails"]) == EXIT_OK
        meta_lossy = json.loads((tmp_path / "out" / "windows_meta.json").read_text())
        assert meta_lossy["discard_tails"] is True
        assert (meta_lossy["splits"]["train"]["token_total"]
                < meta_lossless["splits"]["train"]["token_total"])

    def test_file_embedding_provider_wiring(self, tmp_path):
        import numpy as np

        from xlpack.config import validate_config as vc
        from xlpack.pipeline import make_embedding_provider
        from xlpack.retrieval import write_embedding_cache

        corpus = build_corpus(tmp_path / "data", n_pairs=3, seed=1)
        cache = tmp_path / "emb.bin"
        write_embedding_cache(cache, {"hello": np.array([1.0, 0.0])})
        cfg_path = make_config(tmp_path, corpus, extra={
            "retrieval.provider": "file",
            "retrieval.cache_path": str(cache),
        })
        cfg = vc(cfg_path)
        provider = make_embedding_provider(cfg)
        (vec,) = provider.embed_batch(["hello"])
        assert np.allclose(vec, [1.0, 0.0])
