"""Smoke tests for the example scripts under scripts/."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["SOURCE_DATE_EPOCH"] = "0"
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_synthetic_corpus_runs_through_all(tmp_path):
    proc = _run([str(SCRIPTS / "make_synthetic_corpus.py"), "--out", str(tmp_path),
                 "--pairs", "20", "--web-docs", "20"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    proc = _run(["-m", "xlpack.cli", "all", "--config", str(tmp_path / "config.json")],
                tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "out"
    # The mock provider retrieves the web docs, so pack joins pseudo pairs.
    refs = [json.loads(l) for l in (out / "pseudo_pairs.jsonl").read_text().splitlines()]
    assert refs and all(set(r) == {"doc_id", "id_l"} for r in refs)
    stats = json.loads((out / "stats.json").read_text())
    assert set(stats["sources"]) == {"web", "wiki"}


def _window_counts(stdout):
    """{(split, policy): window count} from compare_window_policies.py's output."""
    counts, split = {}, None
    for line in stdout.splitlines():
        head, _, rest = line.partition(":")
        if head in ("train", "validation"):
            split = head
        elif head.strip() in ("optimized", "standard", "lossy"):
            counts[split, head.strip()] = int(rest.split()[0])
    return counts


@pytest.fixture
def packed_corpus(tmp_path):
    """A synthetic corpus whose config splits off enough contexts that both
    splits get several windows."""
    proc = _run([str(SCRIPTS / "make_synthetic_corpus.py"), "--out", str(tmp_path),
                 "--pairs", "40", "--n-budget", "256"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    cfg_path = tmp_path / "config.json"
    cfg = json.loads(cfg_path.read_text())
    cfg["split"]["validation_fraction"] = 0.25
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, cfg_path


def test_compare_window_policies_prints_each_policy(packed_corpus):
    tmp_path, cfg_path = packed_corpus
    script = [str(SCRIPTS / "compare_window_policies.py"), "--config", str(cfg_path)]
    proc = _run(script, tmp_path)
    assert proc.returncode == 2 and "contexts.jsonl: not found; run pack first" in proc.stderr
    proc = _run(["-m", "xlpack.cli", "all", "--config", str(cfg_path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    proc = _run(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert set(_window_counts(proc.stdout)) == {
        (split, kind) for split in ("train", "validation")
        for kind in ("optimized", "standard", "lossy")}


@pytest.mark.parametrize("kind, keep_final_partial", [
    ("optimized", True), ("standard", True), ("standard", False), ("lossy", True)])
def test_compare_window_policies_counts_equal_slide_manifests(
        packed_corpus, kind, keep_final_partial):
    tmp_path, cfg_path = packed_corpus
    cfg = json.loads(cfg_path.read_text())
    cfg["slide"]["keep_final_partial"] = keep_final_partial
    cfg_path.write_text(json.dumps(cfg))
    proc = _run(["-m", "xlpack.cli", "all", "--config", str(cfg_path),
                 "--set", f"slide.kind={kind}"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    proc = _run([str(SCRIPTS / "compare_window_policies.py"), "--config", str(cfg_path)],
                tmp_path)
    assert proc.returncode == 0, proc.stderr
    counts = _window_counts(proc.stdout)
    for split in ("train", "validation"):
        manifest = json.loads((tmp_path / "out" / "shards" / split / "manifest.json")
                              .read_text())
        assert manifest["window_count"] > 1
        assert counts[split, kind] == manifest["window_count"]


def test_compare_window_policies_reads_flags_as_the_cli_does(tmp_path):
    # The split fraction, split seed and output dir come from the command
    # line, not the config file, so the script must apply the same flags.
    proc = _run([str(SCRIPTS / "make_synthetic_corpus.py"), "--out", str(tmp_path),
                 "--pairs", "40", "--n-budget", "256"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "flagged"
    flags = ["--config", str(tmp_path / "config.json"), "--seed", "5",
             "--set", "split.validation_fraction=0.25", "--set", f"paths.output_dir={out}"]
    proc = _run(["-m", "xlpack.cli", "all", *flags], tmp_path)
    assert proc.returncode == 0, proc.stderr
    script = [str(SCRIPTS / "compare_window_policies.py")]
    proc = _run([*script, *flags], tmp_path)
    assert proc.returncode == 0, proc.stderr
    counts = _window_counts(proc.stdout)
    kind = json.loads((tmp_path / "config.json").read_text())["slide"]["kind"]
    for split in ("train", "validation"):
        manifest = json.loads((out / "shards" / split / "manifest.json").read_text())
        assert manifest["seed"] == 5 and manifest["window_count"] > 1
        assert counts[split, kind] == manifest["window_count"]
    proc = _run([*script, *flags, "--set", "split.validation_fraction=2"], tmp_path)
    assert proc.returncode == 1
    assert "config error: split.validation_fraction" in proc.stderr
