"""The benchmark's own tests: smoke runs, and proof that each output check fires.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import bench  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_smoke_e2e(name):
    result = bench.run_workload(name, workloads.DEFAULT_SEED, 0.1, trace=False, size="smoke")
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.E2E)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_smoke_traced(name):
    result = bench.run_workload(name, workloads.DEFAULT_SEED, 0.1, trace=True, size="smoke")
    assert result["correct"], result
    assert set(result["metrics"]) == set(layers.METRICS)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["tokenization.work_ratio"] > 1
    assert values["dump_ingest.scans"] == (6 if name == "retrieve-web" else 4)
    if name == "retrieve-web":
        assert values["retrieval.texts_per_call"] == 2
        assert values["retrieval.pseudo_pairs"] > 0


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """One clean smoke run of retrieve-web, the workload every check applies to."""
    inputs = workloads.prepare(bench.WORK, "retrieve-web", workloads.DEFAULT_SEED, "smoke")
    out = tmp_path_factory.mktemp("finished") / "out"
    with bench.Launcher() as launcher:
        proc = bench.launch(launcher, bench.xlpack_args("all", inputs, out), out)
    assert proc.code == 0
    failures, facts = checks.check_outputs(out, inputs, None)
    assert failures == []
    return inputs, out, facts["digest"]


@pytest.fixture
def copy(finished, tmp_path):
    inputs, out, digest = finished
    target = tmp_path / "out"
    shutil.copytree(out, target)
    return inputs, target, digest


def _fired(inputs, out, digest) -> set[str]:
    failures, _ = checks.check_outputs(out, inputs, digest)
    outcome = bench.Outcome()
    outcome.record("corrupted", failures)
    assert outcome.failed == (1 if failures else 0)
    return {f.split(":")[0] for f in failures}


def _first_shard(out: Path) -> Path:
    return sorted((out / "shards" / "train").glob("windows-*.bin"))[0]


def test_clean_copy_passes(copy):
    assert _fired(*copy) == set()


def test_flipped_shard_byte(copy):
    inputs, out, digest = copy
    shard = _first_shard(out)
    data = bytearray(shard.read_bytes())
    data[4] ^= 0x01  # low byte of the first token id, not a length prefix
    shard.write_bytes(bytes(data))
    assert _fired(inputs, out, digest) == {"digest"}


def test_window_not_ending_in_split(copy):
    inputs, out, digest = copy
    shard = _first_shard(out)
    data = bytearray(shard.read_bytes())
    (count,) = struct.unpack_from("<I", data, 0)
    data[4 + 4 * (count - 1)] = 7  # last token of the first window
    shard.write_bytes(bytes(data))
    assert _fired(inputs, out, digest) == {"windows"}


def test_changed_stats_total(copy):
    inputs, out, digest = copy
    stats_path = out / "stats.json"
    stats = json.loads(stats_path.read_text())
    stats["sources"]["wiki"]["en"] += 1
    stats_path.write_text(json.dumps(stats))
    assert _fired(inputs, out, digest) == {"stats"}


def test_deleted_manifest(copy):
    inputs, out, digest = copy
    (out / "shards" / "validation" / "manifest.json").unlink()
    assert "shards" in _fired(inputs, out, digest)


def test_missing_pair(copy):
    inputs, out, digest = copy
    pairs = out / "pairs.tsv"
    pairs.write_text("".join(pairs.read_text().splitlines(keepends=True)[1:]))
    assert _fired(inputs, out, digest) == {"pairs"}


def test_missing_pseudo_pair(copy):
    inputs, out, digest = copy
    pseudo = out / "pseudo_pairs.jsonl"
    pseudo.write_text("".join(pseudo.read_text().splitlines(keepends=True)[:-1]))
    assert _fired(inputs, out, digest) == {"pseudo"}


def test_missing_wrapper_target_is_absent_not_fatal():
    gone = layers.Target("xlpack.pipeline:no_such_function", "export.staged_read", "gen")
    t = tracer.Tracer()
    t.install([gone])
    assert t.missing == [gone.path] and t.installed == []
    data = {"installed": [], "missing": t.missing, "aggregates": []}
    facts = {"stages": {}, "intermediate_mb": 1.0, "pairs": 1, "pool_speedup_w2": 1.0,
             "token_total": 10, "windows": 1, "n_budget": 16, "shard_bytes": 44,
             "pseudo_pairs": 0, "traced_wall_s": 1.0, "untraced_wall_s": 1.0}
    metrics = layers.layer_metrics(layers.Trace(data), [], facts)
    assert "export.bytes_staged" not in metrics and "tokenization.s" not in metrics
    assert metrics["export.bytes"] == 44


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wiki-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
