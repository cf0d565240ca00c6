"""Pipeline configuration: one JSON document, validated with field-path
diagnostics before any stage runs. Flags may override individual fields via
dotted paths (applied to the raw document prior to validation)."""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

from .export import DEFAULT_SHARD_MAX_BYTES, SplitConfig
from .packing import PackConfig
from .sliding import SlidePolicy
from .tokenization import TokenizerSpec
from .web import RetrievalConfig


class ConfigError(Exception):
    """Structural or cross-field configuration problems (exit code 1)."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


class InputError(Exception):
    """Referenced input data is missing or unreadable (exit code 2)."""


@dataclass
class PipelinePaths:
    langlinks_l_to_en: str
    langlinks_en_to_l: str
    pages_en: str
    pages_l: str
    articles_en: str
    articles_l: str
    output_dir: str
    web_corpus: str | None = None


@dataclass
class PipelineConfig:
    language_l: str
    paths: PipelinePaths
    tokenizer: TokenizerSpec = field(default_factory=TokenizerSpec)
    pack: PackConfig = field(default_factory=PackConfig)
    slide: SlidePolicy = field(default_factory=SlidePolicy)
    split: SplitConfig = field(default_factory=SplitConfig)
    retrieval: RetrievalConfig | None = None
    shard_max_bytes: int = DEFAULT_SHARD_MAX_BYTES

    @property
    def output_dir(self) -> Path:
        return Path(self.paths.output_dir)

    @property
    def retrieves(self) -> bool:
        """Whether retrieve runs and pack joins its pseudo pairs."""
        return self.retrieval is not None and bool(self.paths.web_corpus)

    def effective_dict(self) -> dict:
        """Canonical dict of everything that shapes the output bytes."""
        return asdict(self)


def parse_mix_ratio(value: Any, path: str, diags: list[str]) -> float:
    """Accept a probability in [0, 1] or an "a:b" ratio string (en:L)."""
    if isinstance(value, str):
        parts = value.split(":")
        try:
            nums = [float(p) for p in parts]
        except ValueError:
            nums = []
        if len(nums) != 2 or min(nums) < 0 or sum(nums) == 0:
            diags.append(f"{path}: expected number or 'a:b' ratio, got {value!r}")
            return 0.5
        return nums[0] / (nums[0] + nums[1])
    if isinstance(value, (int, float)) and 0.0 <= float(value) <= 1.0:
        return float(value)
    diags.append(f"{path}: expected probability in [0, 1] or 'a:b' ratio, got {value!r}")
    return 0.5


class _Section:
    """Typed field access over one dict section, recording diagnostics.

    `schema` is the dataclass the section fills: a key that is not one of its
    fields is refused, a field without a default is required, and a missing
    or null field reads as the field's default."""

    def __init__(self, data: dict, prefix: str, diags: list[str], schema: type):
        self.data = data
        self.prefix = prefix
        self.diags = diags
        self.fields = {f.name: f for f in fields(schema)}
        for key in data:
            if key not in self.fields:
                diags.append(f"{self.path(key)}: unknown field")

    def path(self, key: str) -> str:
        return f"{self.prefix}.{key}" if self.prefix else key

    def get(self, key: str, kind):
        spec = self.fields[key]
        required = spec.default is MISSING and spec.default_factory is MISSING
        default = None if spec.default is MISSING else spec.default
        value = self.data.get(key)
        if value is None:
            if required:
                self.diags.append(f"{self.path(key)}: required field is missing")
            return default
        if kind in (int, float) and isinstance(value, bool):
            self.diags.append(f"{self.path(key)}: expected a number, got {value!r}")
            return default
        if kind is float and isinstance(value, int):
            value = float(value)
        if kind is not None and not isinstance(value, kind):
            self.diags.append(
                f"{self.path(key)}: expected {getattr(kind, '__name__', kind)}, got {value!r}"
            )
            return default
        return value

    def read(self, **kinds) -> dict:
        """The named fields, each checked against its kind."""
        return {key: self.get(key, kind) for key, kind in kinds.items()}

    def section(self, key: str, schema: type) -> "_Section":
        return _Section(self.get(key, dict) or {}, self.path(key), self.diags, schema)

    def check_range(self, key: str, value, low, high, high_inclusive=True):
        if not (low <= value and (value <= high if high_inclusive else value < high)):
            hi = "]" if high_inclusive else ")"
            self.diags.append(f"{self.path(key)}: {value!r} outside [{low}, {high}{hi}")


def _parse_config_dict(data: dict) -> tuple[PipelineConfig | None, list[str]]:
    diags: list[str] = []
    top = _Section(data, "", diags, PipelineConfig)

    language_l = top.get("language_l", str)
    paths_sec = top.section("paths", PipelinePaths)
    paths = paths_sec.read(**{name: str for name in paths_sec.fields})

    tokenizer = top.section("tokenizer", TokenizerSpec).read(
        kind=str, vocab_source=str, split_token_text=str, split_token_id=int)
    if tokenizer["kind"] not in ("whitespace", "byte", "external"):
        diags.append(f"tokenizer.kind: unknown kind {tokenizer['kind']!r}")
    if tokenizer["kind"] == "external" and not tokenizer["vocab_source"]:
        diags.append("tokenizer.vocab_source: required for the external kind")
    if not tokenizer["split_token_text"]:
        diags.append("tokenizer.split_token_text: must be non-empty")

    pack_sec = top.section("pack", PackConfig)
    pack = pack_sec.read(n_budget=int, direction_policy=str, mix_ratio=None, seed=int,
                         repeat_titles=bool, truncate_oversize=bool)
    pack_sec.check_range("n_budget", pack["n_budget"], 4, 2**31)
    if pack["direction_policy"] not in ("en_first", "l_first", "mix"):
        diags.append(f"pack.direction_policy: unknown policy {pack['direction_policy']!r}")
    pack["mix_ratio"] = parse_mix_ratio(pack["mix_ratio"], "pack.mix_ratio", diags)

    slide_sec = top.section("slide", SlidePolicy)
    slide = slide_sec.read(kind=str, n_budget=int, keep_final_partial=bool)
    if slide["kind"] not in ("optimized", "standard", "lossy"):
        diags.append(f"slide.kind: unknown kind {slide['kind']!r}")
    if slide_sec.data.get("n_budget") is None:
        slide["n_budget"] = pack["n_budget"]  # it must equal pack's, so it follows it
    if pack["n_budget"] != slide["n_budget"]:
        diags.append(f"pack.n_budget={pack['n_budget']} and "
                     f"slide.n_budget={slide['n_budget']} must be equal")

    split_sec = top.section("split", SplitConfig)
    split = split_sec.read(validation_fraction=float, seed=int)
    split_sec.check_range("validation_fraction", split["validation_fraction"], 0.0, 1.0,
                          high_inclusive=False)

    retrieval = None
    if (ret_data := top.get("retrieval", dict)) is not None:
        ret_sec = _Section(ret_data, "retrieval", diags, RetrievalConfig)
        retrieval = ret_sec.read(
            threshold=float, max_results=int, candidate_pool_k=int, provider=str, dim=int,
            seed=int, cache_path=str, endpoint=str, auth_token=str, timeout_s=float,
            max_retries=int)
        ret_sec.check_range("threshold", retrieval["threshold"], 0.0, 1.0)
        for key in ("max_results", "candidate_pool_k", "dim"):
            ret_sec.check_range(key, retrieval[key], 1, 2**31)
        if retrieval["provider"] not in ("mock", "file", "wire"):
            diags.append(f"retrieval.provider: unknown provider {retrieval['provider']!r}")
        if retrieval["provider"] == "file" and not retrieval["cache_path"]:
            diags.append("retrieval.cache_path: required for the file provider")
        if retrieval["provider"] == "wire" and not retrieval["endpoint"]:
            diags.append("retrieval.endpoint: required for the wire provider")

    shard_max_bytes = top.get("shard_max_bytes", int)
    top.check_range("shard_max_bytes", shard_max_bytes, 16, 2**62)

    if diags:
        return None, diags

    cfg = PipelineConfig(
        language_l=language_l,
        paths=PipelinePaths(**paths),
        tokenizer=TokenizerSpec(**tokenizer),
        pack=PackConfig(**pack),
        slide=SlidePolicy(**slide),
        split=SplitConfig(**split),
        retrieval=RetrievalConfig(**retrieval) if retrieval is not None else None,
        shard_max_bytes=shard_max_bytes,
    )
    return cfg, []


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply `dotted.path=value` overrides onto the raw config document."""
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError([f"override {item!r}: expected dotted.path=value"])
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return data


def check_input_paths(cfg: PipelineConfig, needs_dumps: bool = True) -> list[str]:
    """Missing-input diagnostics (does not touch the network)."""
    missing = []
    p = cfg.paths
    wanted = []
    if needs_dumps:
        wanted += [
            ("paths.langlinks_l_to_en", p.langlinks_l_to_en),
            ("paths.langlinks_en_to_l", p.langlinks_en_to_l),
            ("paths.pages_en", p.pages_en),
            ("paths.pages_l", p.pages_l),
            ("paths.articles_en", p.articles_en),
            ("paths.articles_l", p.articles_l),
        ]
    if cfg.retrieves:
        wanted.append(("paths.web_corpus", p.web_corpus))
    if cfg.tokenizer.kind == "external" and cfg.tokenizer.vocab_source:
        wanted.append(("tokenizer.vocab_source", cfg.tokenizer.vocab_source))
    for field_path, value in wanted:
        if not Path(value).exists():
            missing.append(f"{field_path}: path does not exist: {value}")
    return missing


def validate_config(
    config_path: str | Path, overrides: list[str] | None = None
) -> PipelineConfig:
    """Load, override, and validate; raises ConfigError with field paths."""
    path = Path(config_path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError([f"config is not valid JSON: {e}"]) from e
    if not isinstance(data, dict):
        raise ConfigError(["config root must be a JSON object"])
    if overrides:
        data = apply_overrides(data, overrides)
    cfg, diags = _parse_config_dict(data)
    if cfg is None:
        raise ConfigError(diags)
    return cfg
