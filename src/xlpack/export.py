"""Shard export, validation split, and per-language token statistics.

Windows are persisted as length-prefixed binary records (u32-LE token count,
then that many u32-LE token ids) rolled into numbered files capped at a byte
budget, with a JSON manifest describing the shard set. Output bytes are a pure
function of input and configuration; the manifest timestamp honors
SOURCE_DATE_EPOCH so reproducible runs can pin it.

The validation split is a set of context indices: floor(count * fraction) of
them, the head of one seeded shuffle of range(count). The slide stage walks
the index in order and sends each context to the split its index picks, so
both splits keep the corpus order.

Statistics and the manifests' per-language totals are one sum (`sum_tokens`)
over the pack stage's context index, which carries each context's
per-language token counts; no text is read or tokenized for them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import struct
import sys
from array import array
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

SHARD_PATTERN = "windows-{:05d}.bin"
MANIFEST_NAME = "manifest.json"
DEFAULT_SHARD_MAX_BYTES = 64 * 1024 * 1024


class ShardError(ValueError):
    pass


@dataclass
class WindowShard:
    """One window read back from a shard set, numbered in written order."""

    ids: list[int]
    window_index: int


@dataclass
class SplitConfig:
    validation_fraction: float = 0.001
    seed: int = 32

    def __post_init__(self) -> None:
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError(
                f"validation_fraction: {self.validation_fraction!r} outside [0.0, 1.0)")


@dataclass
class ShardManifest:
    config_digest: str
    tokenizer_kind: str
    n_budget: int
    window_count: int
    token_total: int
    per_language_tokens: dict[str, int]
    seed: int
    split: str  # "train" | "validation"
    created_at: str


def config_digest(config_data: dict) -> str:
    """Stable hash of the effective configuration (no timestamps involved)."""
    canonical = json.dumps(config_data, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_created_at() -> str:
    """SOURCE_DATE_EPOCH when set (reproducible builds), else wall-clock UTC."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        moment = datetime.now(tz=timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def validation_set(count: int, cfg: SplitConfig) -> set[int]:
    """The indices, out of range(count), of the contexts that go to
    validation: exactly floor(count * fraction) of them, picked by one seeded
    shuffle."""
    indices = list(range(count))
    random.Random(cfg.seed).shuffle(indices)
    return set(indices[:math.floor(count * cfg.validation_fraction)])


def split_names(count: int, cfg: SplitConfig) -> list[str]:
    """The split of each of `count` contexts in index order: validation at
    validation_set's positions, train elsewhere."""
    names = ["train"] * count
    for i in validation_set(count, cfg):
        names[i] = "validation"
    return names


def encode_window_record(ids: Sequence[int]) -> bytes:
    try:
        arr = array("I", ids)
    except OverflowError as e:
        raise ShardError("token id out of u32 range") from e
    if sys.byteorder == "big":
        arr.byteswap()
    return struct.pack("<I", len(arr)) + arr.tobytes()


def write_shards(
    windows: Iterable[Sequence[int]],
    out_dir: str | Path,
    *,
    config_digest: str,
    tokenizer_kind: str,
    n_budget: int,
    per_language_tokens: dict[str, int],
    seed: int,
    split: str,
    shard_max_bytes: int = DEFAULT_SHARD_MAX_BYTES,
) -> ShardManifest:
    """Write windows (id sequences) as rolled binary shards plus a manifest
    into an empty or new `out_dir`; byte-deterministic once SOURCE_DATE_EPOCH
    pins the manifest's `created_at` (see `default_created_at`).

    The manifest is only written after every record landed, so a directory
    without a manifest is detectably incomplete. The caller owns `out_dir`:
    the slide stage removes it before a run and after a failed one.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    window_count = 0
    token_total = 0
    shard_idx = 0
    cur_file = None
    cur_bytes = 0
    try:
        for window in windows:
            record = encode_window_record(window)
            if cur_file is not None and cur_bytes + len(record) > shard_max_bytes:
                cur_file.close()
                cur_file = None
            if cur_file is None:
                cur_file = open(out / SHARD_PATTERN.format(shard_idx), "wb")
                cur_bytes = 0
                shard_idx += 1
            cur_file.write(record)
            cur_bytes += len(record)
            window_count += 1
            token_total += len(window)
    finally:
        if cur_file is not None:
            cur_file.close()
    manifest = ShardManifest(
        config_digest=config_digest,
        tokenizer_kind=tokenizer_kind,
        n_budget=n_budget,
        window_count=window_count,
        token_total=token_total,
        per_language_tokens=per_language_tokens,
        seed=seed,
        split=split,
        created_at=default_created_at(),
    )
    manifest_path = out / MANIFEST_NAME
    manifest_path.write_text(
        json.dumps(asdict(manifest), indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return manifest


def iter_shard_records(path: str | Path) -> Iterator[array]:
    """Stream the records of one shard file as u32 ids, raising on a
    truncated record with its offset. Holds one record in memory at a time."""
    with open(path, "rb") as f:
        pos = 0
        while header := f.read(4):
            if len(header) < 4:
                raise ShardError(f"{path}: truncated record header at offset {pos}")
            (count,) = struct.unpack("<I", header)
            body = f.read(4 * count)
            if len(body) < 4 * count:
                raise ShardError(f"{path}: truncated record at offset {pos}")
            ids = array("I")
            ids.frombytes(body)
            if sys.byteorder == "big":
                ids.byteswap()
            yield ids
            pos += 4 + len(body)


def read_manifest(shard_dir: str | Path) -> ShardManifest:
    manifest_path = Path(shard_dir) / MANIFEST_NAME
    if not manifest_path.exists():
        raise ShardError(f"missing manifest {manifest_path}")
    return ShardManifest(**json.loads(manifest_path.read_text(encoding="utf-8")))


def read_shards(shard_dir: str | Path) -> Iterator[WindowShard]:
    """Yield windows in written order, verifying counts against the manifest."""
    manifest = read_manifest(shard_dir)
    shard_files = sorted(Path(shard_dir).glob("windows-*.bin"))
    window_index = 0
    token_total = 0
    for file in shard_files:
        for ids in iter_shard_records(file):
            yield WindowShard(ids.tolist(), window_index)
            window_index += 1
            token_total += len(ids)
    if window_index != manifest.window_count:
        raise ShardError(
            f"{shard_dir}: manifest window_count {manifest.window_count}, found {window_index}"
        )
    if token_total != manifest.token_total:
        raise ShardError(
            f"{shard_dir}: manifest token_total {manifest.token_total}, found {token_total}"
        )


@dataclass(slots=True)
class ContextEntry:
    """One line of the context index, contexts.jsonl, which pack writes and
    slide and stats read: the context's data source and token counts.
    token_len counts the terminal split token; per_language_tokens counts the
    segment tokens of each language and excludes it. These fields are the
    line's keys, no more and no fewer."""

    origin: str
    token_len: int
    per_language_tokens: dict[str, int]


@dataclass
class CorpusStats:
    """Per-language token totals, two rows (en, L) per data source."""

    sources: dict[str, dict[str, int]] = field(default_factory=dict)
    control_tokens: int = 0


def sum_tokens(entries: Iterable[ContextEntry]) -> dict[str, int]:
    """Per-language token totals over `entries`."""
    totals: dict[str, int] = {}
    for entry in entries:
        for lang, tokens in entry.per_language_tokens.items():
            totals[lang] = totals.get(lang, 0) + tokens
    return totals


def compute_stats(entries: Sequence[ContextEntry]) -> CorpusStats:
    """Sum the index's per-language token counts per (source, language); the
    terminal split token of each context lands in control_tokens instead."""
    origins = dict.fromkeys(entry.origin for entry in entries)
    return CorpusStats(
        sources={origin: sum_tokens(e for e in entries if e.origin == origin)
                 for origin in origins},
        control_tokens=len(entries),
    )
