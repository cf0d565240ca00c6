"""CLI and pipeline-stage tests over small synthetic corpora."""

import json
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from xlpack.alignment import ArticleTally, scan_articles
from xlpack.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, EXIT_STAGE, run
from xlpack.config import ConfigError, PipelineConfig, field_kinds, validate_config
from xlpack.dump_ingest import parse_langlinks_dump, parse_pages_dump
from xlpack.export import (
    SplitConfig,
    config_digest,
    iter_shard_records,
    read_shards,
    validation_set,
)
from xlpack.packing import PackConfig
from xlpack.report import read_events
from xlpack.sliding import SlidePolicy
from xlpack.synth import (
    build_corpus,
    title_to_db,
    write_articles_jsonl,
    write_langlinks_dump,
    write_pages_dump,
    write_sql_dump,
    write_web_corpus_jsonl,
)
from xlpack.tokenization import TokenizerSpec
from xlpack.web import RetrievalConfig


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


def _manifests(out: Path) -> dict[str, dict]:
    return {split: json.loads((out / "shards" / split / "manifest.json").read_text())
            for split in ("train", "validation")}


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

    def test_import_does_not_load_requests(self):
        # Only the wire embedding provider makes HTTP requests, with
        # urllib.request, which it imports itself; requests is no dependency.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, xlpack.cli; print('requests' in sys.modules, "
             "'urllib.request' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False False"

    def test_export_import_does_not_load_numpy(self, tmp_path):
        # The shard codec decodes records with array, so it needs no numpy;
        # neither does the CLI, nor a run without retrieve. A run with
        # retrieve on loads it, so the check sees a run that reached retrieve.
        corpus = build_corpus(tmp_path / "data", n_pairs=6, seed=5)
        (tmp_path / "plain").mkdir()
        (tmp_path / "web").mkdir()
        plain = make_config(tmp_path / "plain", corpus)
        web_path = write_web_corpus_jsonl(tmp_path / "data" / "web.jsonl",
                                          [(f"web{k}", f"Topic {k}") for k in range(6)])
        retrieving = make_config(tmp_path / "web", corpus, extra={
            "paths.web_corpus": str(web_path), "retrieval.provider": "mock"})
        run_all = ("import sys, xlpack.cli; code = xlpack.cli.run(['all', '--config', {!r}]); "
                   "print(code, 'numpy' in sys.modules)")
        for script, printed in [
            ("import sys, xlpack.export; print('numpy' in sys.modules)", "False"),
            ("import sys, xlpack.cli; print('numpy' in sys.modules)", "False"),
            (run_all.format(str(plain)), f"{EXIT_OK} False"),
            (run_all.format(str(retrieving)), f"{EXIT_OK} True"),
        ]:
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == printed, script

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

    @pytest.mark.parametrize("how, dim", [("config", 0), ("set", -3)])
    def test_retrieval_dim_out_of_range(self, tmp_path, capsys, how, dim):
        corpus = build_corpus(tmp_path / "data", n_pairs=4, seed=5)
        web_path = write_web_corpus_jsonl(tmp_path / "data" / "web.jsonl",
                                          [("web0", "Web page 0")])
        extra = {"paths.web_corpus": str(web_path), "retrieval.provider": "mock"}
        overrides = []
        if how == "config":
            extra["retrieval.dim"] = dim
        else:
            overrides = ["--set", f"retrieval.dim={dim}"]
        cfg_path = make_config(tmp_path, corpus, extra=extra)
        assert run(["retrieve", "--config", str(cfg_path), *overrides]) == EXIT_CONFIG
        assert f"retrieval.dim: {dim} outside" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, field", [
        (["tokenizer.kind=byte", "tokenizer.split_token_id=1"], "tokenizer.split_token_id"),
        (["tokenizer.kind=external", "tokenizer.vocab_source=v.vocab",
          "tokenizer.split_token_id=1"], "tokenizer.split_token_id"),
        (["tokenizer.split_token_id=-1"], "tokenizer.split_token_id"),
        ([f"tokenizer.split_token_id={2**32}"], "tokenizer.split_token_id"),
        (["retrieval.provider=file"], "retrieval.cache_path"),
        (["retrieval.provider=wire"], "retrieval.endpoint"),
        (["retrieval.max_retries=-1"], "retrieval.max_retries"),
        (["retrieval.timeout_s=0"], "retrieval.timeout_s"),
    ], ids=["byte_id_1", "external_id_1", "id_minus_1", "id_2_32", "file_no_cache_path",
            "wire_no_endpoint", "retries_minus_1", "timeout_0"])
    def test_config_time_refusals(self, small_run, capsys, overrides, field):
        # Refused before any stage runs, not when pack first builds a tokenizer
        # or retrieve its embedding provider.
        _, _, cfg_path = small_run
        args = [a for o in overrides for a in ("--set", o)]
        assert run(["align", "--config", str(cfg_path), *args]) == EXIT_CONFIG
        assert f"config error: {field}: " in capsys.readouterr().err

    def test_whitespace_ids_past_u32_name_the_setting(self, tmp_path, capsys):
        # The config accepts any split id below 2^32, but whitespace word ids
        # count up from it; pack refuses once a new word has no u32 id left.
        corpus = build_corpus(tmp_path / "data", n_pairs=4, seed=5)
        cfg_path = make_config(tmp_path, corpus)
        code = run(["all", "--config", str(cfg_path),
                    "--set", f"tokenizer.split_token_id={2**32 - 3}"])
        assert code == EXIT_STAGE
        err = capsys.readouterr().err
        assert "stage failure: tokenizer.split_token_id: " in err
        assert f"{2**32 - 3} leaves room for 2 distinct words" in err

    def test_missing_input_path(self, small_run, capsys):
        tmp_path, _, cfg_path = small_run
        code = run(["align", "--config", str(cfg_path),
                    "--set", "paths.pages_en=/nonexistent/pages.sql"])
        assert code == EXIT_INPUT
        assert "paths.pages_en" in capsys.readouterr().err

    def test_pack_does_not_need_the_dumps(self, small_run, capsys):
        # pack reads the pair map and the articles; only align and retrieve
        # read the dumps, so `all` still needs them.
        _, _, cfg_path = small_run
        missing = ["--set", "paths.pages_en=/nonexistent/pages.sql"]
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        assert run(["pack", "--config", str(cfg_path), *missing]) == EXIT_OK
        assert run(["all", "--config", str(cfg_path), *missing]) == EXIT_INPUT
        assert "paths.pages_en" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["slide", "stats"])
    def test_stage_that_does_not_tokenize_needs_no_vocab(self, small_run, capsys, sub):
        tmp_path, _, cfg_path = small_run
        vocab = tmp_path / "v.vocab"
        vocab.write_text("<unk>\t1\n", encoding="utf-8")
        external = ["--set", "tokenizer.kind=external",
                    "--set", f"tokenizer.vocab_source={vocab}"]
        for stage in ("align", "pack"):
            assert run([stage, "--config", str(cfg_path), *external]) == EXIT_OK, stage
        vocab.unlink()
        assert run([sub, "--config", str(cfg_path), *external]) == EXIT_OK
        assert run(["pack", "--config", str(cfg_path), *external]) == EXIT_INPUT
        assert "tokenizer.vocab_source" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["align", "all"])
    def test_dump_with_only_malformed_tuples_refused(self, small_run, capsys, sub):
        # The older `page` layout carries page_restrictions ('') after the
        # title, so align reads no tuple of it.
        tmp_path, corpus, cfg_path = small_run
        pages = list(parse_pages_dump(corpus.pages_en))
        write_sql_dump(corpus.pages_en, "page", [
            (p.page_id, p.namespace, title_to_db(p.title), "", int(p.is_redirect), 0)
            for p in pages])
        assert run([sub, "--config", str(cfg_path)]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert f"{corpus.pages_en}: all {len(pages)} tuples scanned are malformed" in err
        out = tmp_path / "out"
        assert not (out / "pairs.tsv").exists() and not (out / "shards").exists()

    @pytest.mark.parametrize("dump", ["pages_l", "langlinks_l_to_en"])
    def test_retrieve_refuses_a_dump_of_malformed_tuples(self, tmp_path, capsys, dump):
        cfg_path = _retrieve_run(tmp_path, [("webA", "Web A\nalpha")], {})
        path = Path(json.loads(cfg_path.read_text())["paths"][dump])
        # Older layouts: `page` with page_restrictions after the title, and
        # `langlinks` with a fourth column.
        write_sql_dump(path, "t", [(7, 0, "T", "", 0, 0), (8, 0, "U", "", 0, 0)]
                       if dump == "pages_l" else [(7, "en", "T", 0), (8, "en", "U", 0)])
        assert run(["retrieve", "--config", str(cfg_path)]) == EXIT_STAGE
        assert f"{path}: all 2 tuples scanned are malformed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "pseudo_pairs.jsonl").exists()

    def test_retrieve_refuses_a_cache_cut_mid_vector(self, tmp_path, capsys):
        cfg_path = _retrieve_run(tmp_path, [("webA", "Web A\nalpha")], {})
        cache = tmp_path / "emb.bin"
        # The last record is "Thema 5"'s, and its three components end the file.
        cache.write_bytes(cache.read_bytes()[:-5])
        assert run(["retrieve", "--config", str(cfg_path)]) == EXIT_STAGE
        assert f"stage failure: {cache}: truncated vector for 'Thema 5'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "pseudo_pairs.jsonl").exists()

    def test_links_to_other_languages_only_not_refused(self, small_run):
        tmp_path, corpus, cfg_path = small_run
        links = [(link.from_page_id, "fr", link.target_title)
                 for link in parse_langlinks_dump(corpus.langlinks_l_to_en)]
        write_langlinks_dump(corpus.langlinks_l_to_en, links)
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        events = read_events(tmp_path / "out" / "run_report.jsonl")
        (align,) = [e for e in events if e.get("stage") == "align"]
        assert align["parse_tallies"]["langlinks_l_to_en"] == {
            "tuples_scanned": len(links), "records_yielded": 0, "malformed": 0, "resyncs": 0}
        assert align["pair_count"] > 0

    def test_stage_failure_when_inputs_missing_for_stage(self, small_run, capsys,
                                                         monkeypatch):
        tmp_path, _, cfg_path = small_run
        # pack requires pairs.tsv which align has not written yet, slide and
        # stats contexts.jsonl which pack has not produced yet, and export the
        # shard set which slide has not written yet
        for sub, hint in (("pack", "pairs.tsv: not found; run align first"),
                          ("slide", "contexts.jsonl: not found; run pack first"),
                          ("stats", "contexts.jsonl: not found; run pack first"),
                          ("export", "shards: not found; run slide first")):
            assert run([sub, "--config", str(cfg_path)]) == EXIT_INPUT, sub
            assert hint in capsys.readouterr().err, sub
        # An output dir given as "." names each missing file relative to it.
        monkeypatch.chdir(tmp_path / "out")
        here = ["--config", str(cfg_path), "--set", "paths.output_dir=."]
        assert run(["export", *here]) == EXIT_INPUT
        assert "input error: shards: not found; run slide first" in capsys.readouterr().err

    def test_debug_flag_only_on_its_stage_and_all(self, small_run, capsys):
        # --dump-tsv belongs to align and --emit-text to pack; `all` takes both.
        tmp_path, _, cfg_path = small_run
        for sub, flag in (("slide", "--emit-text"), ("stats", "--dump-tsv"),
                          ("export", "--emit-text"), ("align", "--emit-text"),
                          ("pack", "--dump-tsv"), ("retrieve", "--dump-tsv")):
            with pytest.raises(SystemExit) as exc:
                run([sub, "--config", str(cfg_path), flag])
            assert exc.value.code == 2, sub  # argparse's usage error
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err, sub
        assert run(["all", "--config", str(cfg_path), "--dump-tsv", "--emit-text"]) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "debug" / "pages_l.tsv").exists() and (out / "contexts_text.jsonl").exists()


class TestValidateConfig:
    def test_minimal_valid_config(self, small_run):
        _, _, cfg_path = small_run
        cfg = validate_config(cfg_path, ["retrieval={}"])
        assert cfg.pack.n_budget == cfg.slide.n_budget == 64
        assert cfg.split.seed == 32 and cfg.split.validation_fraction == 0.001
        # Every default comes from the section's dataclass.
        assert cfg.tokenizer == TokenizerSpec()
        assert cfg.pack == PackConfig(n_budget=64)
        assert cfg.slide == SlidePolicy(n_budget=64)
        assert cfg.split == SplitConfig()
        assert cfg.retrieval == RetrievalConfig()

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
        # A key that no section field reads is refused, not ignored.
        with pytest.raises(ConfigError) as err:
            validate_config(cfg_path, ["slide.discard_tails=true", "pack.nbudget=3"])
        assert err.value.diagnostics == ["pack.nbudget: unknown field",
                                         "slide.discard_tails: unknown field"]

    def test_every_field_has_a_readable_kind(self):
        # _Section checks each value with isinstance against its field's
        # kind, read from the annotation; a nested section is a dataclass.
        schemas = [PipelineConfig]
        for schema in schemas:
            kinds = field_kinds(schema)
            assert list(kinds) == [f.name for f in fields(schema)], schema
            for name, kind in kinds.items():
                if is_dataclass(kind):
                    schemas.append(kind)
                else:
                    assert kind in (str, int, float, bool), (schema, name, kind)
        assert {s.__name__ for s in schemas} == {
            "PipelineConfig", "PipelinePaths", "TokenizerSpec", "PackConfig",
            "SlidePolicy", "SplitConfig", "RetrievalConfig"}


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

    @pytest.mark.parametrize("kind", ["whitespace", "byte"])
    def test_emit_text_matches_index(self, small_run, kind):
        from xlpack.tokenization import TokenizerSpec, make_tokenizer

        tmp_path, _, cfg_path = small_run
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        assert run(["pack", "--config", str(cfg_path), "--emit-text",
                    "--set", f"tokenizer.kind={kind}"]) == EXIT_OK
        out = tmp_path / "out"
        index = [json.loads(l) for l in (out / "contexts.jsonl").read_text().splitlines()]
        rendered = [json.loads(l)
                    for l in (out / "contexts_text.jsonl").read_text().splitlines()]
        assert len(rendered) == len(index) > 0
        fresh = make_tokenizer(TokenizerSpec(kind=kind))
        for entry, line in zip(index, rendered):
            assert fresh.count(line["text"]) == line["token_len"] == entry["token_len"]

    def test_all_produces_consistent_artifacts(self, small_run, monkeypatch):
        tmp_path, _, cfg_path = small_run
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        out = tmp_path / "out"
        manifests = _manifests(out)
        stats = json.loads((out / "stats.json").read_text())
        assert set(stats["sources"]["wiki"]) == {"en", "xx"}
        events = read_events(out / "run_report.jsonl")
        slide = [e for e in events if e.get("stage") == "slide"][-1]
        assert slide["train"] == manifests["train"]["window_count"]
        assert events[-1]["event"] == "run_complete"
        assert events[-1]["tokens_per_s"] > 0
        assert events[-1]["token_total"] == sum(m["token_total"] for m in manifests.values())

    def test_splits_keep_corpus_order(self, small_run):
        # Under the optimized policy each split's windows concatenate to its
        # contexts.bin records, in index order.
        # slide consumes contexts.bin, so the records are read before it runs.
        tmp_path, _, cfg_path = small_run
        fraction = ["--set", "split.validation_fraction=0.3"]
        for sub in ("align", "pack"):
            assert run([sub, "--config", str(cfg_path), *fraction]) == EXIT_OK, sub
        out = tmp_path / "out"
        records = [ids.tolist() for ids in iter_shard_records(out / "contexts.bin")]
        assert run(["slide", "--config", str(cfg_path), *fraction]) == EXIT_OK
        validation = validation_set(len(records), SplitConfig(0.3, 32))
        assert 0 < len(validation) < len(records)
        for split in ("train", "validation"):
            expected = [t for i, ids in enumerate(records)
                        if (i in validation) == (split == "validation") for t in ids]
            assert [t for w in read_shards(out / "shards" / split) for t in w.ids] == expected

    def test_stage_isolation(self, small_run, monkeypatch):
        """Each subcommand runs standalone given prior stage outputs on disk."""
        tmp_path, _, cfg_path = small_run
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        for sub in ("align", "pack", "slide", "export", "stats"):
            assert run([sub, "--config", str(cfg_path)]) == EXIT_OK, sub
        assert (tmp_path / "out" / "shards" / "train" / "manifest.json").exists()

    def test_slide_consumes_context_ids(self, small_run, tmp_path, monkeypatch):
        # `all` and the stages run one by one leave the same files, and
        # neither leaves contexts.bin: the shards hold each id.
        _, _, cfg_path = small_run
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        staged = ["--set", f"paths.output_dir={tmp_path / 'staged'}"]
        for sub in ("align", "pack", "slide", "export", "stats"):
            assert run([sub, "--config", str(cfg_path), *staged]) == EXIT_OK, sub
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        files = {name: sorted(_tree_bytes(tmp_path / name, skip=()))
                 for name in ("out", "staged")}
        assert files["out"] == files["staged"]
        assert "contexts.bin" not in files["out"]
        assert {"pairs.tsv", "contexts.jsonl", "stats.json", "run_report.jsonl",
                "shards/train/manifest.json"} <= set(files["out"])

    def test_slide_after_all_needs_a_repack(self, small_run, capsys):
        tmp_path, _, cfg_path = small_run
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        capsys.readouterr()
        assert run(["slide", "--config", str(cfg_path)]) == EXIT_INPUT
        assert "contexts.bin: not found; run pack first" in capsys.readouterr().err
        assert not (tmp_path / "out" / "shards").exists()

    def test_pack_then_slide_with_another_kind(self, small_run):
        tmp_path, _, cfg_path = small_run
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        assert run(["pack", "--config", str(cfg_path)]) == EXIT_OK
        assert run(["slide", "--config", str(cfg_path),
                    "--set", "slide.kind=lossy"]) == EXIT_OK
        out = tmp_path / "out"
        assert _manifests(out)["train"]["window_count"] > 0
        assert not (out / "contexts.bin").exists()

    def test_pack_decodes_each_article_line_once(self, small_run, monkeypatch):
        # The article files are in page-id order, the order of pack's lookups.
        from xlpack import alignment

        _, corpus, cfg_path = small_run
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        calls = []

        def counting(line, lang):
            calls.append(line)
            return parse_article_line(line, lang)

        parse_article_line = alignment.parse_article_line
        monkeypatch.setattr(alignment, "parse_article_line", counting)
        assert run(["pack", "--config", str(cfg_path)]) == EXIT_OK
        lines = [line for path in (corpus.articles_en, corpus.articles_l)
                 for line in path.read_bytes().splitlines(keepends=True) if line.strip()]
        assert len(lines) == 50 and sorted(calls) == sorted(lines)

    def test_pack_names_non_integer_pair_id(self, small_run, capsys):
        tmp_path, _, cfg_path = small_run
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        pairs = tmp_path / "out" / "pairs.tsv"
        first, *rest = pairs.read_text().splitlines(keepends=True)
        pairs.write_text(first + "x\t50000\n" + "".join(rest))
        capsys.readouterr()
        assert run(["pack", "--config", str(cfg_path)]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert f"{pairs}:2: " in err and "'x\\t50000'" in err and "rerun align" in err
        assert not (tmp_path / "out" / "contexts.jsonl").exists()

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
        assert last["train"] == _manifests(out)["train"]["window_count"]

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
            manifest_path = out / "shards" / "validation" / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            manifest["window_count"] += 1
            manifest_path.write_text(json.dumps(manifest))
            expected = "manifest window_count"
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
        assert len(windows) == _manifests(tmp_path / "out")["train"]["window_count"]

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

    def test_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        # Each run is its own interpreter, so set and dict orders that follow
        # str hashes differ between the two; no output byte may.
        corpus = build_corpus(tmp_path / "data", n_pairs=10, seed=6)
        docs = [(f"web{k}", f"Topic {k}") for k in range(10)]
        web_path = write_web_corpus_jsonl(tmp_path / "data" / "web.jsonl", docs)
        cfg_path = make_config(tmp_path, corpus, extra={
            "paths.web_corpus": str(web_path), "retrieval.provider": "mock",
            "retrieval.dim": 12, "retrieval.threshold": 0.99})
        trees = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "SOURCE_DATE_EPOCH": "0"}
            proc = subprocess.run([sys.executable, "-m", "xlpack.cli", "all", "--config",
                                   str(cfg_path)], capture_output=True, text=True, env=env)
            assert proc.returncode == EXIT_OK, proc.stderr
            trees.append(_tree_bytes(tmp_path / "out"))
        assert trees[0]["pseudo_pairs.jsonl"] and "shards/train/manifest.json" in trees[0]
        assert trees[0] == trees[1]

    def test_non_string_title_counted_as_malformed(self, small_run):
        tmp_path, corpus, cfg_path = small_run
        lines = corpus.articles_l.read_text(encoding="utf-8").splitlines(keepends=True)
        rec = json.loads(lines[0])
        rec["title"] = 5
        lines[0] = json.dumps(rec) + "\n"
        corpus.articles_l.write_text("".join(lines), encoding="utf-8")
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        assert run(["pack", "--config", str(cfg_path)]) == EXIT_OK
        events = read_events(tmp_path / "out" / "run_report.jsonl")
        (packed,) = [e for e in events if e.get("stage") == "pack"]
        assert packed["join"]["pairs_missing_text"] == 1
        assert packed["join"]["malformed_articles"] == 1

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


def _retrieve_run(tmp_path, web_docs, vectors, default=(0.0, 0.0, 1.0),
                  article_records=None, n_pairs=6):
    """A corpus, web corpus and file-provider config for the retrieve stage.

    Every query text ("Topic k" or "Thema k") and web text embeds to
    `vectors.get(text, default)`, so the test fixes which docs each article
    retrieves. `article_records`, when given, replaces the target-language
    article file.
    """
    import numpy as np

    from xlpack.retrieval import write_embedding_cache

    corpus = build_corpus(tmp_path / "data", n_pairs=n_pairs, seed=5)
    if article_records is not None:
        write_articles_jsonl(corpus.articles_l, article_records)
    web_path = write_web_corpus_jsonl(tmp_path / "data" / "web.jsonl", web_docs)
    texts = [t for _, t in web_docs] + [f"{w} {k}" for w in ("Topic", "Thema")
                                        for k in range(n_pairs)]
    texts += [t for t in vectors if t not in texts]
    cache = tmp_path / "emb.bin"
    write_embedding_cache(cache, {t: np.array(vectors.get(t, default)) for t in texts})
    return make_config(tmp_path, corpus, extra={
        "paths.web_corpus": str(web_path),
        "retrieval.provider": "file",
        "retrieval.cache_path": str(cache),
        "retrieval.threshold": 0.9,
    })


def _articles_l_file(cfg_path: Path) -> Path:
    """The one file in the config's target-language article directory."""
    (path,) = Path(json.loads(cfg_path.read_text())["paths"]["articles_l"]).iterdir()
    return path


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
        assert all(set(p) == {"doc_id", "id_l"} for p in pseudo)
        stats = json.loads((out / "stats.json").read_text())
        assert "web" in stats["sources"]
        origins = {json.loads(l)["origin"] for l in
                   (out / "contexts.jsonl").read_text().splitlines()}
        assert origins == {"web", "wiki"}
        (packed,) = [e for e in read_events(out / "run_report.jsonl")
                     if e.get("stage") == "pack"]
        pair_count = len((out / "pairs.tsv").read_text().splitlines())
        assert packed["packing"]["pairs_in"] == pair_count + len(pseudo)

    def test_query_embed_calls_one_per_group(self, tmp_path, monkeypatch):
        import xlpack.pipeline as pipeline
        from xlpack.retrieval import MockEmbeddingProvider

        calls = []
        groups = []
        query = pipeline.two_step_retrieve

        class CountingProvider(MockEmbeddingProvider):
            def embed_batch(self, texts):
                calls.append(len(texts))
                return super().embed_batch(texts)

        def counting_query(keyword_sets, *args, **kwargs):
            groups.append(len(keyword_sets))
            return query(keyword_sets, *args, **kwargs)

        corpus = build_corpus(tmp_path / "data", n_pairs=8, seed=5)
        docs = [(f"web{k}", f"Topic {k}") for k in range(8)]
        web_path = write_web_corpus_jsonl(tmp_path / "data" / "web.jsonl", docs)
        cfg_path = make_config(tmp_path, corpus, extra={
            "paths.web_corpus": str(web_path), "retrieval.threshold": 0.99})
        monkeypatch.setattr(pipeline, "make_embedding_provider",
                            lambda cfg: CountingProvider(dim=12))
        # The benchmark's tracer wraps xlpack.pipeline.two_step_retrieve, so
        # retrieve must call the query through that binding, once per group.
        monkeypatch.setattr(pipeline, "two_step_retrieve", counting_query)
        out = tmp_path / "out"
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        assert run(["retrieve", "--config", str(cfg_path)]) == EXIT_OK
        one_group = (out / "pseudo_pairs.jsonl").read_bytes()
        assert calls[0] == len(docs) and len(calls) == 2  # corpus, then one group
        assert len(groups) == 1

        calls.clear()
        groups.clear()
        monkeypatch.setattr(pipeline, "SCORE_BLOCK_BYTES", 16 * len(docs) * 3)  # groups of 3
        assert run(["retrieve", "--config", str(cfg_path)]) == EXIT_OK
        (done, *_) = [e for e in reversed(read_events(out / "run_report.jsonl"))
                      if e.get("stage") == "retrieve"]
        n_articles = done["retrieval"]["articles_queried"]
        assert n_articles > 3
        assert calls[0] == len(docs)
        assert len(calls) - 1 == -(-n_articles // 3)
        assert sum(calls[1:]) == 2 * n_articles
        assert len(groups) == len(calls) - 1 and sum(groups) == n_articles
        assert (out / "pseudo_pairs.jsonl").read_bytes() == one_group
        assert one_group

    def test_blank_web_doc_dropped_and_counted(self, tmp_path, monkeypatch):
        # Every text embeds to the same vector, so each article retrieves all
        # three docs; the blank one is dropped in retrieve and counted.
        docs = [("blank", "   "), ("webA", "Web A\nalpha beta"), ("webB", "Web B\ngamma")]
        cfg_path = _retrieve_run(tmp_path, docs, {}, default=(1.0, 0.0, 0.0), n_pairs=6)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        out = tmp_path / "out"
        refs = [json.loads(l) for l in (out / "pseudo_pairs.jsonl").read_text().splitlines()]
        assert [r["doc_id"] for r in refs] == ["webA", "webB"] * 6
        events = read_events(out / "run_report.jsonl")
        (done,) = [e for e in events if e.get("stage") == "retrieve"]
        assert done["retrieval"]["missing_corpus_texts"] == 6
        assert done["pseudo_pairs"] == len(refs)

    def test_dense_articles_counted(self, tmp_path):
        # Every text embeds to the same vector, so every doc scores 1.0 for
        # every query: under k = 100 no article is dense; with k = 1 and
        # threshold 0.0 every one is, and each keeps the first doc of each pool.
        docs = [("webA", "Web A\nalpha"), ("webB", "Web B\ngamma")]
        cfg_path = _retrieve_run(tmp_path, docs, {}, default=(1.0, 0.0, 0.0), n_pairs=4)
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        out = tmp_path / "out"
        tallies = []
        for settings in ([], ["--set", "retrieval.threshold=0.0",
                              "--set", "retrieval.candidate_pool_k=1"]):
            assert run(["retrieve", "--config", str(cfg_path), *settings]) == EXIT_OK
            *_, done = [e for e in read_events(out / "run_report.jsonl")
                        if e.get("stage") == "retrieve"]
            tallies.append(done["retrieval"])
        sparse, dense = tallies
        assert (sparse["dense_articles"], sparse["results_kept"]) == (0, 8)
        assert dense["dense_articles"] == dense["articles_queried"] == 4
        assert dense["results_kept"] == 4
        refs = [json.loads(l) for l in (out / "pseudo_pairs.jsonl").read_text().splitlines()]
        assert [r["doc_id"] for r in refs] == ["webA"] * 4

    def test_duplicate_page_id_query_and_join_use_first_record(self, tmp_path):
        # Page 10000 appears twice in articles_l. The first record's title
        # maps to "Topic 0" and retrieves webA; the second record's title
        # "Andere" would retrieve webB. Both retrieve and pack use the first.
        # Page 10001 retrieves nothing, so it writes no line.
        records = [(10_000, "Thema 0", "erste worte"), (10_001, "Thema 1", "zwei"),
                   (10_000, "Andere", "zweite worte")]
        docs = [("webA", "Web A\nalpha"), ("webB", "Web B\nbeta")]
        vectors = {"Topic 0": [1.0, 0.0, 0.0], "Thema 0": [1.0, 0.0, 0.0],
                   "Web A\nalpha": [1.0, 0.0, 0.0],
                   "Andere": [0.0, 1.0, 0.0], "Web B\nbeta": [0.0, 1.0, 0.0]}
        cfg_path = _retrieve_run(tmp_path, docs, vectors, article_records=records,
                                 n_pairs=2)
        out = tmp_path / "out"
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        assert run(["retrieve", "--config", str(cfg_path)]) == EXIT_OK
        refs = [json.loads(l) for l in (out / "pseudo_pairs.jsonl").read_text().splitlines()]
        assert refs == [{"doc_id": "webA", "id_l": 10_000}]
        assert run(["pack", "--config", str(cfg_path), "--emit-text"]) == EXIT_OK
        rendered = [json.loads(l) for l in
                    (out / "contexts_text.jsonl").read_text().splitlines()]
        web = [r["text"] for r in rendered if r["pair"][0] == 10_000
               and r["pair"][1] != 50_000]
        assert web and all("erste" in t and "zweite" not in t for t in web)

    def test_malformed_first_record_yields_to_well_formed_one(self, tmp_path):
        # Page 7's first line has no text; retrieve queries its second line,
        # and pack joins that same record.
        docs = [("webA", "Web A\nalpha")]
        vectors = {"Sieben": [1.0, 0.0, 0.0], "Web A\nalpha": [1.0, 0.0, 0.0]}
        cfg_path = _retrieve_run(tmp_path, docs, vectors, n_pairs=2)
        _articles_l_file(cfg_path).write_text('{"id": "7", "title": "Sieben"}\n'
                                              '{"id": "7", "title": "Sieben", "text": "body"}\n')
        out = tmp_path / "out"
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        assert run(["retrieve", "--config", str(cfg_path)]) == EXIT_OK
        refs = [json.loads(l) for l in (out / "pseudo_pairs.jsonl").read_text().splitlines()]
        assert refs == [{"doc_id": "webA", "id_l": 7}]
        assert run(["pack", "--config", str(cfg_path), "--emit-text"]) == EXIT_OK
        (rendered,) = [json.loads(l) for l in
                       (out / "contexts_text.jsonl").read_text().splitlines()]
        assert rendered["pair"][0] == 7 and "body" in rendered["text"]
        events = read_events(out / "run_report.jsonl")
        (done,) = [e for e in events if e.get("stage") == "retrieve"]
        assert done["malformed_articles"] == 1 and done["duplicate_articles"] == 0

    def test_blank_articles_counted_not_queried(self, tmp_path):
        # Of the records the scan yields, two have blank text: they are
        # counted, and the others queried. The malformed line and the second
        # record of page 10000 are not records the scan yields.
        records = [(10_000, "Thema 0", "worte"), (10_001, "Thema 1", " \n "),
                   (10_002, "Thema 2", ""), (10_003, "Thema 3", "mehr"),
                   (10_000, "Andere", "")]
        cfg_path = _retrieve_run(tmp_path, [("webA", "Web A\nalpha")], {},
                                 article_records=records, n_pairs=4)
        articles_l = _articles_l_file(cfg_path)
        with open(articles_l, "a") as f:
            f.write('{"id": "9", "title": "Neun"}\n')
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        assert run(["retrieve", "--config", str(cfg_path)]) == EXIT_OK
        (done,) = [e for e in read_events(tmp_path / "out" / "run_report.jsonl")
                   if e.get("stage") == "retrieve"]
        assert (done["malformed_articles"], done["duplicate_articles"]) == (1, 1)
        tally = done["retrieval"]
        assert (tally["articles_queried"], tally["blank_articles"]) == (2, 2)
        scanned = list(scan_articles(articles_l, "xx", ArticleTally()))
        assert tally["articles_queried"] + tally["blank_articles"] == len(scanned)

    def test_retrieve_decodes_each_article_line_once(self, tmp_path, monkeypatch):
        from xlpack import alignment

        cfg_path = _retrieve_run(tmp_path, [("webA", "Web A\nalpha")], {}, n_pairs=4)
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        calls = []

        def counting(line, lang):
            calls.append(line)
            return parse_article_line(line, lang)

        parse_article_line = alignment.parse_article_line
        monkeypatch.setattr(alignment, "parse_article_line", counting)
        assert run(["retrieve", "--config", str(cfg_path)]) == EXIT_OK
        lines = [line for line in _articles_l_file(cfg_path).read_bytes().splitlines()
                 if line.strip()]
        assert len(lines) == 4 and len(calls) == len(lines)

    def test_pack_decodes_an_article_once_for_its_pseudo_pairs(self, tmp_path, monkeypatch):
        # Every text embeds alike, so each article retrieves all three docs.
        from collections import Counter

        from xlpack import alignment

        docs = [(f"web{c}", f"Web {c}\n{c.lower()} words") for c in "ABC"]
        cfg_path = _retrieve_run(tmp_path, docs, {}, default=(1.0, 0.0, 0.0), n_pairs=3)
        out = tmp_path / "out"
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        assert run(["retrieve", "--config", str(cfg_path)]) == EXIT_OK
        refs = [json.loads(l) for l in (out / "pseudo_pairs.jsonl").read_text().splitlines()]
        assert sorted(Counter(r["id_l"] for r in refs).values()) == [3, 3, 3]
        calls = []

        def counting(line, lang):
            calls.append(line)
            return parse_article_line(line, lang)

        parse_article_line = alignment.parse_article_line
        monkeypatch.setattr(alignment, "parse_article_line", counting)
        assert run(["pack", "--config", str(cfg_path)]) == EXIT_OK
        # Once by the aligned join's scan, once for the article's three pseudo pairs.
        decoded = Counter(calls)
        lines = [line for line in _articles_l_file(cfg_path).read_bytes()
                 .splitlines(keepends=True) if line.strip()]
        assert len(lines) == 3 and [decoded[line] for line in lines] == [2, 2, 2]

    def test_pack_paragraphizes_an_article_once_for_its_pseudo_pairs(self, tmp_path,
                                                                     monkeypatch):
        # Each article retrieves all three docs; a split marker in every target
        # text still counts once per pair.
        from collections import Counter

        import xlpack.pipeline as pipeline
        from xlpack import packing

        docs = [(f"web{c}", f"Web {c}\n{c.lower()} words") for c in "ABC"]
        records = [(10_000 + k, f"Thema {k}", f"Text {k} [SPLIT] here.\n\nMore.")
                   for k in range(3)]
        cfg_path = _retrieve_run(tmp_path, docs, {}, default=(1.0, 0.0, 0.0),
                                 article_records=records, n_pairs=3)
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        assert run(["retrieve", "--config", str(cfg_path)]) == EXIT_OK
        calls = []

        def counting(title, text, lang, tokenizer):
            calls.append((lang, title))
            return paragraphize(title, text, lang, tokenizer)

        paragraphize = packing.paragraphize
        monkeypatch.setattr(pipeline, "paragraphize", counting)
        monkeypatch.setattr(packing, "paragraphize", counting)
        assert run(["pack", "--config", str(cfg_path)]) == EXIT_OK
        out = tmp_path / "out"
        (packed,) = [e for e in read_events(out / "run_report.jsonl")
                     if e.get("stage") == "pack"]
        aligned = len((out / "pairs.tsv").read_text().splitlines())
        pseudo = len((out / "pseudo_pairs.jsonl").read_text().splitlines())
        assert packed["packing"]["pairs_packed"] == aligned + pseudo == 3 + 9
        # Once by the aligned pair, once for the article's three pseudo pairs;
        # the English side of every pair is its own.
        target = Counter(title for lang, title in calls if lang != "en")
        assert target == {f"Thema {k}": 2 for k in range(3)}
        assert len(calls) - sum(target.values()) == 12
        assert packed["packing"]["split_markers_scrubbed"] == 12

    def test_invalid_utf8_article_line_counted(self, tmp_path):
        cfg_path = _retrieve_run(tmp_path, [("webA", "Web A\nalpha")], {}, n_pairs=2)
        with open(_articles_l_file(cfg_path), "ab") as f:
            f.write(b'{"id": "8", "title": "\xff", "text": "x"}\n')
        out = tmp_path / "out"
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        assert run(["retrieve", "--config", str(cfg_path)]) == EXIT_OK
        assert run(["pack", "--config", str(cfg_path)]) == EXIT_OK
        events = read_events(out / "run_report.jsonl")
        (retrieved,) = [e for e in events if e.get("stage") == "retrieve"]
        (packed,) = [e for e in events if e.get("stage") == "pack"]
        assert retrieved["malformed_articles"] == 1
        assert packed["join"]["malformed_articles"] == 1

    @pytest.mark.parametrize("settings", [["--set", "tokenizer.kind=byte"], ["--emit-text"], []],
                             ids=["byte", "emit_text", "whitespace"])
    def test_lone_surrogate_article_counted_for_every_tokenizer(self, tmp_path, settings):
        # A text with no UTF-8 form can be neither tokenized as bytes nor
        # written out; whatever the tokenizer, it is a malformed article.
        corpus = build_corpus(tmp_path / "data", n_pairs=3, seed=5)
        cfg_path = make_config(tmp_path, corpus)
        path = _articles_l_file(cfg_path)
        first, *rest = path.read_bytes().splitlines(keepends=True)
        rec = json.loads(first)
        rec["text"] += "\ud800"
        path.write_bytes(json.dumps(rec).encode() + b"\n" + b"".join(rest))
        assert run(["all", "--config", str(cfg_path), *settings]) == EXIT_OK
        (packed,) = [e for e in read_events(tmp_path / "out" / "run_report.jsonl")
                     if e.get("stage") == "pack"]
        assert packed["join"]["malformed_articles"] == 1
        assert packed["join"]["pairs_missing_text"] == 1

    @pytest.mark.parametrize("case", ["full_text", "doc_id", "id_l", "no_web_corpus",
                                      "doc_id_list", "id_l_str", "id_l_bool"])
    def test_pack_refuses_untrusted_pseudo_pairs(self, tmp_path, capsys, case):
        docs = [("webA", "Web A\nalpha")]
        cfg_path = _retrieve_run(tmp_path, docs, {}, n_pairs=2)
        out = tmp_path / "out"
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        good = {"doc_id": "webA", "id_l": 10_000}
        bad, expected = {
            "full_text": ({"id_l": 10_000, "id_en": 1, "title_en": "Web A",
                           "title_l": "Thema 0", "text_en": "Web A\nalpha",
                           "text_l": "x", "lang_l": "xx", "origin": "web"},
                          "rerun retrieve"),
            "doc_id": ({"doc_id": "webZ", "id_l": 10_000}, "doc_id 'webZ' has no text"),
            "id_l": ({"doc_id": "webA", "id_l": 99}, "id_l 99 has no text"),
            "no_web_corpus": ({"doc_id": "webZ", "id_l": 99}, None),
            "doc_id_list": ({"doc_id": ["webA"], "id_l": 10_000}, "not a pseudo pair reference"),
            "id_l_str": ({"doc_id": "webA", "id_l": "10000"}, "not a pseudo pair reference"),
            "id_l_bool": ({"doc_id": "webA", "id_l": True}, "not a pseudo pair reference"),
        }[case]
        (out / "pseudo_pairs.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in (good, bad)))
        if case == "no_web_corpus":
            # Retrieval is off, so pack ignores the leftover file: only the
            # config decides whether pseudo pairs are packed.
            assert run(["pack", "--config", str(cfg_path),
                        "--set", "paths.web_corpus="]) == EXIT_OK
            origins = {json.loads(l)["origin"] for l in
                       (out / "contexts.jsonl").read_text().splitlines()}
            assert origins == {"wiki"}
            return
        assert run(["pack", "--config", str(cfg_path)]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert "pseudo_pairs.jsonl:2:" in err and expected in err
        assert not (out / "contexts.jsonl").exists()

    def test_pack_before_retrieve_names_retrieve(self, tmp_path, capsys, monkeypatch):
        # pack checks for the pseudo pairs on entry, before it packs any pair.
        import xlpack.pipeline as pipeline

        cfg_path = _retrieve_run(tmp_path, [("webA", "Web A\nalpha")], {}, n_pairs=2)
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        packed = []
        pack_pair = pipeline.pack_pair
        monkeypatch.setattr(pipeline, "pack_pair",
                            lambda *args: packed.append(args) or pack_pair(*args))
        assert run(["pack", "--config", str(cfg_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "pseudo_pairs.jsonl: not found; run retrieve first" in err
        assert packed == []
        assert not (tmp_path / "out" / "contexts.jsonl").exists()

    def test_retrieve_requires_web_corpus(self, small_run, capsys):
        _, _, cfg_path = small_run
        code = run(["retrieve", "--config", str(cfg_path),
                    "--set", "retrieval.provider=mock"])
        assert code == EXIT_CONFIG
        assert "config error: retrieval, paths.web_corpus: " in capsys.readouterr().err

    def test_retrieve_with_retrieval_off_is_a_config_error(self, tmp_path, capsys):
        # Refused before any stage runs: the earlier run's pseudo pairs and
        # report stay as they were.
        cfg_path = _retrieve_run(tmp_path, [("webA", "Web A\nalpha")], {}, n_pairs=2)
        out = tmp_path / "out"
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        before = _tree_bytes(out, skip=())
        assert "pseudo_pairs.jsonl" in before
        code = run(["retrieve", "--config", str(cfg_path), "--set", "retrieval=null"])
        assert code == EXIT_CONFIG
        assert "config error: retrieval, paths.web_corpus: " in capsys.readouterr().err
        assert _tree_bytes(out, skip=()) == before


def _keys(value):
    """The nested key structure of an event: each dict maps to its keys'
    structures, every other value to None."""
    if isinstance(value, dict):
        return {k: _keys(v) for k, v in value.items()}
    return None


_STAGE_EVENT_KEYS = {
    "align": {
        "pair_count": None,
        "alignment": dict.fromkeys(("links_seen", "links_dropped", "title_collisions")),
        "parse_tallies": dict.fromkeys(
            ("langlinks_l_to_en", "pages_en", "langlinks_en_to_l", "pages_l"),
            dict.fromkeys(("tuples_scanned", "records_yielded", "malformed", "resyncs"))),
    },
    "retrieve": {
        "corpus_docs": None,
        "pseudo_pairs": None,
        "duplicate_articles": None,
        "malformed_articles": None,
        "retrieval": dict.fromkeys(("articles_queried", "blank_articles", "unmapped_titles",
                                    "empty_keyword_sets", "results_kept",
                                    "missing_corpus_texts", "dense_articles")),
    },
    "pack": {
        "context_count": None,
        "join": dict.fromkeys(("pairs_missing_text", "duplicate_articles",
                               "malformed_articles")),
        "packing": dict.fromkeys(("pairs_in", "pairs_packed", "degenerate_pairs",
                                  "truncated_paragraphs", "oversize_skipped",
                                  "split_markers_scrubbed")),
    },
    "slide": dict.fromkeys(("train", "validation")),
    "export": dict.fromkeys(("train", "validation")),
    "stats": {"sources": None},  # filled in per corpus
}


class TestStageShell:
    """Every stage owns its outputs: it removes them on entry, and a failed
    stage leaves none of them. Each successful stage reports one
    stage_complete event of a fixed shape."""

    @pytest.mark.parametrize("retrieval", [False, True], ids=["wiki", "web"])
    def test_stage_complete_event_keys(self, small_run, tmp_path, retrieval):
        if retrieval:
            cfg_path = _retrieve_run(tmp_path / "web", [("webA", "Web A\nalpha")], {},
                                     n_pairs=2)
            stages = ["align", "retrieve", "pack", "slide", "export", "stats"]
            sources = ["web", "wiki"]
        else:
            cfg_path = small_run[2]
            stages = ["align", "pack", "slide", "export", "stats"]
            sources = ["wiki"]
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        out = Path(json.loads(cfg_path.read_text())["paths"]["output_dir"])
        done = [e for e in read_events(out / "run_report.jsonl")
                if e["event"] == "stage_complete"]
        langs = dict.fromkeys(("en", "xx"))
        expected = []
        for stage in stages:
            keys = {"ts": None, "event": None, "stage": None, "elapsed_s": None,
                    **_STAGE_EVENT_KEYS[stage]}
            if stage == "stats":
                keys["sources"] = dict.fromkeys(sources, langs)
            expected.append(keys)
        assert [e["stage"] for e in done] == stages
        assert [_keys(e) for e in done] == expected

    def test_all_looks_stages_up_at_call_time(self, tmp_path, monkeypatch):
        # The benchmark's tracer wraps xlpack.pipeline.stage_* by name, so
        # run_all must call each stage through its module attribute.
        import xlpack.pipeline as pipeline

        cfg_path = _retrieve_run(tmp_path, [("webA", "Web A\nalpha")], {}, n_pairs=2)
        calls = []

        def counting(name, stage):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return stage(*args, **kwargs)
            return wrapper

        stages = ["align", "retrieve", "pack", "slide", "export", "stats"]
        for name in stages:
            attr = f"stage_{name}"
            monkeypatch.setattr(pipeline, attr, counting(name, getattr(pipeline, attr)))
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        assert calls == stages

    @pytest.mark.parametrize("stage", ["align", "retrieve", "slide"])
    def test_failed_stage_leaves_no_outputs(self, tmp_path, stage):
        cfg_path = _retrieve_run(tmp_path, [("webA", "Web A\nalpha")], {}, n_pairs=2)
        paths = json.loads(cfg_path.read_text())["paths"]
        out = tmp_path / "out"
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        if stage == "align":
            # A dump that ends inside an INSERT statement.
            with open(paths["pages_en"], "a", encoding="utf-8") as f:
                f.write("\nINSERT INTO `page` VALUES (9,0,'Cut")
            output, code = out / "pairs.tsv", EXIT_STAGE
        elif stage == "retrieve":
            # A corpus line that fails while retrieve builds its index.
            with open(paths["web_corpus"], "a", encoding="utf-8") as f:
                f.write("not json\n")
            output, code = out / "pseudo_pairs.jsonl", EXIT_STAGE
        else:
            (out / "contexts.jsonl").unlink()
            output, code = out / "shards", EXIT_INPUT
        assert output.exists()
        assert run([stage, "--config", str(cfg_path)]) == code
        assert not output.exists()

    def test_failed_all_leaves_no_earlier_outputs(self, small_run, capsys):
        # A stage removes only its own outputs when it fails, so `all` clears
        # every stage's before align: no later stage reads a stale file.
        tmp_path, corpus, cfg_path = small_run
        out = tmp_path / "out"
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        pages = list(parse_pages_dump(corpus.pages_en))
        write_sql_dump(corpus.pages_en, "page", [
            (p.page_id, p.namespace, title_to_db(p.title), "", int(p.is_redirect), 0)
            for p in pages])
        assert run(["all", "--config", str(cfg_path)]) == EXIT_STAGE
        assert sorted(p.name for p in out.iterdir()) == ["run_report.jsonl"]
        capsys.readouterr()
        assert run(["export", "--config", str(cfg_path)]) == EXIT_INPUT
        assert "run slide first" in capsys.readouterr().err
        assert run(["stats", "--config", str(cfg_path)]) == EXIT_INPUT
        assert "run pack first" in capsys.readouterr().err

    def test_pack_refuses_tallies_that_do_not_add_up(self, small_run, monkeypatch, capsys):
        import xlpack.pipeline as pipeline

        tmp_path, _, cfg_path = small_run
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        pair_count = len((tmp_path / "out" / "pairs.tsv").read_text().splitlines())
        pack_pair = pipeline.pack_pair
        dropped = []

        def dropping(pair, tokenizer, cfg, direction, tally=None, art_l=None):
            if not dropped:  # the first pair vanishes without a tally
                dropped.append(pair)
                return []
            return pack_pair(pair, tokenizer, cfg, direction, tally, art_l)

        monkeypatch.setattr(pipeline, "pack_pair", dropping)
        assert run(["pack", "--config", str(cfg_path)]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert (f"pack tallies do not add up: {pair_count} pairs read, {pair_count - 1} "
                "packed, 0 degenerate, 0 missing text") in err
        assert not (tmp_path / "out" / "contexts.jsonl").exists()

    def test_failed_slide_leaves_no_partial_shard(self, small_run):
        tmp_path, _, cfg_path = small_run
        out = tmp_path / "out"
        for sub in ("align", "pack", "slide"):
            assert run([sub, "--config", str(cfg_path)]) == EXIT_OK, sub
        # One record more than the index has lines: slide writes the train
        # windows of every record before it, then refuses the stream.
        from xlpack.export import encode_window_record

        with open(out / "contexts.bin", "ab") as f:
            f.write(encode_window_record([5, 0]))
        assert run(["slide", "--config", str(cfg_path),
                    "--set", "shard_max_bytes=2000"]) == EXIT_STAGE
        assert not (out / "shards").exists()
        assert (out / "contexts.bin").exists()  # a mended slide needs no re-pack

    def test_debug_outputs_do_not_outlive_their_run(self, small_run):
        tmp_path, corpus, cfg_path = small_run
        out = tmp_path / "out"
        assert run(["align", "--config", str(cfg_path), "--dump-tsv"]) == EXIT_OK
        assert run(["pack", "--config", str(cfg_path), "--emit-text"]) == EXIT_OK
        assert (out / "debug" / "pages_l.tsv").exists()
        assert (out / "contexts_text.jsonl").exists()
        assert run(["pack", "--config", str(cfg_path)]) == EXIT_OK
        assert not (out / "contexts_text.jsonl").exists()
        assert run(["align", "--config", str(cfg_path)]) == EXIT_OK
        assert not (out / "debug").exists()
        # pages_l is read after pages_en and langlinks_l_to_en are dumped.
        with open(corpus.pages_l, "a", encoding="utf-8") as f:
            f.write("\nINSERT INTO `page` VALUES (9,0,'Cut")
        assert run(["align", "--config", str(cfg_path), "--dump-tsv"]) == EXIT_STAGE
        assert not (out / "debug").exists()
        assert not (out / "pairs.tsv").exists()

    def test_retrieval_off_ignores_leftover_pseudo_pairs(self, tmp_path, monkeypatch):
        import shutil

        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        cfg_path = _retrieve_run(tmp_path, [("webA", "Web A\nalpha")], {}, n_pairs=4)
        out = tmp_path / "out"
        off = ["--config", str(cfg_path), "--set", "retrieval=null"]
        skip = ("run_report.jsonl", "pseudo_pairs.jsonl")
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        # `all` removes every stage's outputs first, so run the stages one by
        # one: pack then reads past the leftover.
        for sub in ("align", "pack", "slide", "export", "stats"):
            assert run([sub, *off]) == EXIT_OK, sub
        assert (out / "pseudo_pairs.jsonl").read_text()
        reused = _tree_bytes(out, skip)
        shutil.rmtree(out)
        assert run(["all", *off]) == EXIT_OK
        assert _tree_bytes(out, skip) == reused
        assert list(json.loads(reused["stats.json"])["sources"]) == ["wiki"]


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
        manifest = _manifests(tmp_path / "out")["train"]
        standard = validate_config(cfg_path, ["slide.kind=standard"])
        assert manifest["config_digest"] == config_digest(standard.effective_dict())
        # Exact partition: all full windows except possibly the last.
        lengths = [len(w.ids) for w in read_shards(tmp_path / "out" / "shards" / "train")]
        assert len(lengths) == manifest["window_count"] > 1
        assert all(l == 64 for l in lengths[:-1])

    def test_shards_do_not_depend_on_the_output_dir(self, tmp_path, monkeypatch):
        cfg_path = _retrieve_run(tmp_path, [("webA", "Web A\nalpha")], {}, n_pairs=4)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        trees = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert run(["all", "--config", str(cfg_path),
                        "--set", f"paths.output_dir={out}"]) == EXIT_OK
            trees.append(_tree_bytes(out / "shards"))
        assert "train/manifest.json" in trees[0]
        assert trees[0] == trees[1]
        # Nor on where the inputs are: no path is in the digest.
        moved = validate_config(cfg_path, ["paths.output_dir=/elsewhere",
                                           "paths.web_corpus=/elsewhere/web.jsonl",
                                           "tokenizer.vocab_source=/elsewhere/vocab.txt",
                                           "retrieval.cache_path=/elsewhere/emb.bin"])
        digest = config_digest(validate_config(cfg_path).effective_dict())
        assert config_digest(moved.effective_dict()) == digest
        assert json.loads((tmp_path / "one" / "shards" / "train" / "manifest.json")
                          .read_text())["config_digest"] == digest

    def test_lossy_slide_kind(self, small_run, monkeypatch):
        tmp_path, _, cfg_path = small_run
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert run(["all", "--config", str(cfg_path)]) == EXIT_OK
        lossless = _manifests(tmp_path / "out")["train"]
        assert run(["all", "--config", str(cfg_path), "--set", "slide.kind=lossy"]) == EXIT_OK
        lossy = _manifests(tmp_path / "out")["train"]
        assert lossy["config_digest"] != lossless["config_digest"]
        assert lossy["token_total"] < lossless["token_total"]
        with pytest.raises(SystemExit):
            run(["all", "--config", str(cfg_path), "--discard-tails"])

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
