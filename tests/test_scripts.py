"""Smoke tests for the example scripts under scripts/."""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_compare_window_policies_prints_each_policy(tmp_path):
    proc = _run([str(SCRIPTS / "compare_window_policies.py"), "--pairs", "20",
                 "--n-budget", "256"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = {line.split(":")[0].strip() for line in proc.stdout.splitlines() if ":" in line}
    assert {"optimized", "standard", "lossy"} <= rows
