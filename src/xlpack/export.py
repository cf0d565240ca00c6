"""Shard export, validation split, and per-language token statistics.

Windows are persisted as length-prefixed binary records (u32-LE token count,
then that many u32-LE token ids) rolled into numbered files capped at a byte
budget, with a JSON manifest describing the shard set. Output bytes are a pure
function of input and configuration; the manifest timestamp honors
SOURCE_DATE_EPOCH so reproducible runs can pin it.

The validation split selects floor(count * fraction) contexts through one
seeded shuffle, and both halves keep their original relative order.

Statistics are sums over the pack stage's context index, which carries each
context's per-language token counts; no text is read or tokenized for them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import struct
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .alignment import PairId
from .sliding import WindowShard

T = TypeVar("T")

SHARD_PATTERN = "windows-{:05d}.bin"
MANIFEST_NAME = "manifest.json"

_MAX_TOKEN_ID = 2**32 - 1


class ShardError(ValueError):
    pass


@dataclass
class SplitConfig:
    validation_fraction: float = 0.001
    seed: int = 32

    def __post_init__(self) -> None:
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be within [0, 1)")


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

    def to_dict(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "tokenizer_kind": self.tokenizer_kind,
            "n_budget": self.n_budget,
            "window_count": self.window_count,
            "token_total": self.token_total,
            "per_language_tokens": dict(sorted(self.per_language_tokens.items())),
            "seed": self.seed,
            "split": self.split,
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardManifest":
        return cls(**data)


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


def split_validation(contexts: Sequence[T], cfg: SplitConfig) -> tuple[list[T], list[T]]:
    """Deterministic (train, validation) split at context granularity.

    Exactly floor(len * fraction) items go to validation; both lists preserve
    the input's relative order.
    """
    count = len(contexts)
    take = math.floor(count * cfg.validation_fraction)
    indices = list(range(count))
    random.Random(cfg.seed).shuffle(indices)
    chosen = set(indices[:take])
    train = [c for i, c in enumerate(contexts) if i not in chosen]
    validation = [c for i, c in enumerate(contexts) if i in chosen]
    return train, validation


def encode_window_record(ids: Sequence[int]) -> bytes:
    arr = np.asarray(ids, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() > _MAX_TOKEN_ID):
        raise ShardError("token id out of u32 range")
    return struct.pack("<I", len(ids)) + arr.astype("<u4").tobytes()


def write_shards(
    windows: Iterable[WindowShard],
    out_dir: str | Path,
    *,
    config_digest: str,
    tokenizer_kind: str,
    n_budget: int,
    per_language_tokens: dict[str, int],
    seed: int,
    split: str,
    shard_max_bytes: int = 64 * 1024 * 1024,
    created_at: str | None = None,
) -> ShardManifest:
    """Write windows as rolled binary shards plus a manifest; byte-deterministic.

    Shard files and a manifest already in `out_dir` are removed first, so a
    rerun that writes fewer shards leaves none of the old ones behind. A
    failure mid-write removes the partial shard file before propagating, and
    the manifest is only written after every record landed, so a directory
    without a manifest is detectably incomplete.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in [*out.glob("windows-*.bin"), out / MANIFEST_NAME]:
        stale.unlink(missing_ok=True)
    window_count = 0
    token_total = 0
    shard_idx = 0
    cur_path: Path | None = None
    cur_file = None
    cur_bytes = 0
    try:
        for window in windows:
            record = encode_window_record(window.ids)
            if cur_file is not None and cur_bytes + len(record) > shard_max_bytes:
                cur_file.close()
                cur_file = None
            if cur_file is None:
                cur_path = out / SHARD_PATTERN.format(shard_idx)
                cur_file = open(cur_path, "wb")
                cur_bytes = 0
                shard_idx += 1
            cur_file.write(record)
            cur_bytes += len(record)
            window_count += 1
            token_total += len(window.ids)
    except BaseException:
        if cur_file is not None:
            cur_file.close()
            if cur_path is not None:
                cur_path.unlink(missing_ok=True)
        raise
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
        created_at=created_at if created_at is not None else default_created_at(),
    )
    manifest_path = out / MANIFEST_NAME
    manifest_path.write_text(
        json.dumps(manifest.to_dict(), indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return manifest


def iter_shard_records(path: str | Path) -> Iterator[list[int]]:
    """Stream the records of one shard file, raising on a truncated record
    with its offset. Holds one record in memory at a time."""
    with open(path, "rb") as f:
        pos = 0
        while header := f.read(4):
            if len(header) < 4:
                raise ShardError(f"{path}: truncated record header at offset {pos}")
            (count,) = struct.unpack("<I", header)
            body = f.read(4 * count)
            if len(body) < 4 * count:
                raise ShardError(f"{path}: truncated record at offset {pos}")
            yield np.frombuffer(body, dtype="<u4").tolist()
            pos += 4 + len(body)


def read_manifest(shard_dir: str | Path) -> ShardManifest:
    manifest_path = Path(shard_dir) / MANIFEST_NAME
    if not manifest_path.exists():
        raise ShardError(f"missing manifest {manifest_path}")
    return ShardManifest.from_dict(json.loads(manifest_path.read_text(encoding="utf-8")))


def read_shards(shard_dir: str | Path) -> Iterator[WindowShard]:
    """Yield windows in written order, verifying counts against the manifest."""
    manifest = read_manifest(shard_dir)
    shard_files = sorted(Path(shard_dir).glob("windows-*.bin"))
    window_index = 0
    token_total = 0
    for file in shard_files:
        for ids in iter_shard_records(file):
            yield WindowShard(ids, window_index)
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
    """One context of the pack stage's index: where it came from and how many
    tokens it holds. token_len counts the terminal split token; per_language
    counts the segment tokens of each language and excludes it."""

    pair: PairId
    seq_index: int
    direction: str
    origin: str
    token_len: int
    per_language: dict[str, int]


@dataclass
class CorpusStats:
    """Per-language token totals, two rows (en, L) per data source."""

    per_source: dict[str, dict[str, int]] = field(default_factory=dict)
    control_tokens: int = 0

    def add(self, origin: str, lang: str, tokens: int) -> None:
        row = self.per_source.setdefault(origin, {})
        row[lang] = row.get(lang, 0) + tokens

    def to_dict(self) -> dict:
        return {
            "sources": {
                origin: dict(sorted(langs.items()))
                for origin, langs in sorted(self.per_source.items())
            },
            "control_tokens": self.control_tokens,
        }


def compute_stats(entries: Iterable[ContextEntry]) -> CorpusStats:
    """Sum the index's per-language token counts per (source, language); the
    terminal split token of each context lands in control_tokens instead."""
    stats = CorpusStats()
    for entry in entries:
        for lang, tokens in entry.per_language.items():
            stats.add(entry.origin, lang, tokens)
        stats.control_tokens += 1
    return stats
