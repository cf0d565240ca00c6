"""Output checks applied to every benchmark run of the pipeline.

`check_outputs` returns a list of failures, each prefixed with the name of
the check that fired: shards, windows, stats, pairs, pseudo or digest. An
empty list means the output directory is correct.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from xlpack.export import ShardError, read_shards

SPLITS = ("train", "validation")
SPLIT_TOKEN_ID = 0


def shard_files(out: Path) -> list[Path]:
    return [f for split in SPLITS for f in sorted((out / "shards" / split).glob("windows-*.bin"))]


def shard_digest(out: Path) -> str:
    """sha256 over the shard files of both splits, names included. The
    manifests are left out: their config digest covers absolute paths."""
    h = hashlib.sha256()
    for f in shard_files(out):
        h.update(f"{f.parent.name}/{f.name}\n".encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def read_pair_ids(path: Path) -> list[tuple[int, int]]:
    pairs = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            id_l, id_en = line.split("\t")
            pairs.append((int(id_l), int(id_en)))
    return pairs


def check_outputs(out: Path, inputs, digest: str | None) -> tuple[list[str], dict]:
    """Check one finished output directory against the workload's ground truth.

    `digest` is the shard digest the run must reproduce, or None to skip that
    check. Returns (failures, facts); facts holds the shard token total,
    window count and digest for the metrics.
    """
    failures: list[str] = []
    facts = {"token_total": 0, "windows": 0, "digest": None}

    for split in SPLITS:
        bad = []
        try:
            for window in read_shards(out / "shards" / split):
                facts["windows"] += 1
                facts["token_total"] += len(window.ids)
                if len(window.ids) > inputs.n_budget or window.ids[-1:] != [SPLIT_TOKEN_ID]:
                    bad.append(window.window_index)
            if bad:
                failures.append(
                    f"windows: {split} windows {bad[:5]} exceed {inputs.n_budget} tokens "
                    f"or do not end with split id {SPLIT_TOKEN_ID}")
        except (ShardError, OSError, ValueError, KeyError, TypeError) as e:
            failures.append(f"shards: {split}: {e}")

    try:
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        per_lang = sum(t for langs in stats["sources"].values() for t in langs.values())
        if per_lang + stats["control_tokens"] != facts["token_total"]:
            failures.append(
                f"stats: per-language {per_lang} + control {stats['control_tokens']} "
                f"!= shard tokens {facts['token_total']}")
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        failures.append(f"stats: {e!r}")
        stats = None

    try:
        got = read_pair_ids(out / "pairs.tsv")
        if got != inputs.pair_ids:
            failures.append(f"pairs: pairs.tsv has {len(got)} pairs, "
                            f"{len(set(got) ^ set(inputs.pair_ids))} differ from the ground truth")
    except (OSError, ValueError) as e:
        failures.append(f"pairs: {e!r}")

    if inputs.planned_pseudo is not None:
        failures += _check_pseudo(out, inputs.planned_pseudo, stats)

    if failures:
        return failures, facts
    facts["digest"] = shard_digest(out)
    if digest is not None and facts["digest"] != digest:
        failures.append(f"digest: shard sha256 {facts['digest'][:16]}... != {digest[:16]}...")
    return failures, facts


def _check_pseudo(out: Path, planned: dict[int, int], stats: dict | None) -> list[str]:
    try:
        with open(out / "pseudo_pairs.jsonl", encoding="utf-8") as f:
            kept = Counter(json.loads(line)["id_l"] for line in f if line.strip())
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"pseudo: {e!r}"]
    failures = []
    if dict(kept) != planned:
        failures.append(f"pseudo: {sum(kept.values())} pseudo pairs over {len(kept)} articles, "
                        f"planned {sum(planned.values())} over {len(planned)}")
    if stats is not None and planned and set(stats.get("sources", {})) != {"web", "wiki"}:
        failures.append(f"pseudo: stats sources {sorted(stats.get('sources', {}))}, "
                        "expected web and wiki")
    return failures


def disk_bytes(out: Path, exclude: tuple[str, ...] = ()) -> int:
    """Bytes of the files under `out`, skipping top-level entries in `exclude`."""
    return sum(
        f.stat().st_size for f in out.rglob("*")
        if f.is_file() and f.relative_to(out).parts[0] not in exclude
    )
