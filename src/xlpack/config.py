"""Pipeline configuration: one JSON document, validated with field-path
diagnostics before any stage runs. Flags may override individual fields via
dotted paths (applied to the raw document prior to validation)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .export import SplitConfig
from .packing import PackConfig
from .retrieval import RetrievalConfig
from .sliding import SlidePolicy
from .tokenization import TokenizerSpec

DEFAULT_SHARD_MAX_BYTES = 64 * 1024 * 1024


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
class RetrievalSettings:
    """Retrieval constants plus the embedding provider wiring."""

    threshold: float = 0.75
    max_results: int = 3
    candidate_pool_k: int = 100
    provider: str = "mock"  # mock | file | wire
    dim: int = 16
    seed: int = 0
    cache_path: str | None = None
    endpoint: str | None = None
    auth_token: str | None = None
    timeout_s: float = 30.0
    max_retries: int = 3

    def to_retrieval_config(self) -> RetrievalConfig:
        return RetrievalConfig(
            threshold=self.threshold,
            max_results=self.max_results,
            candidate_pool_k=self.candidate_pool_k,
        )


@dataclass
class PipelineConfig:
    language_l: str
    paths: PipelinePaths
    tokenizer: TokenizerSpec = field(default_factory=TokenizerSpec)
    pack: PackConfig = field(default_factory=PackConfig)
    slide: SlidePolicy = field(default_factory=SlidePolicy)
    split: SplitConfig = field(default_factory=SplitConfig)
    retrieval: RetrievalSettings | None = None
    shard_max_bytes: int = DEFAULT_SHARD_MAX_BYTES

    @property
    def output_dir(self) -> Path:
        return Path(self.paths.output_dir)

    def effective_dict(self) -> dict:
        """Canonical dict of everything that shapes the output bytes."""

        def plain(obj: Any) -> Any:
            if hasattr(obj, "__dataclass_fields__"):
                return {k: plain(getattr(obj, k)) for k in obj.__dataclass_fields__}
            return obj

        return {
            "language_l": self.language_l,
            "paths": plain(self.paths),
            "tokenizer": plain(self.tokenizer),
            "pack": plain(self.pack),
            "slide": plain(self.slide),
            "split": plain(self.split),
            "retrieval": plain(self.retrieval) if self.retrieval else None,
            "shard_max_bytes": self.shard_max_bytes,
        }


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
    """Typed field access over one dict section, recording diagnostics."""

    def __init__(self, data: dict, prefix: str, diags: list[str]):
        self.data = data if isinstance(data, dict) else {}
        self.prefix = prefix
        self.diags = diags
        if not isinstance(data, dict):
            diags.append(f"{prefix}: expected an object")

    def path(self, key: str) -> str:
        return f"{self.prefix}.{key}" if self.prefix else key

    def get(self, key: str, kind, default=None, required: bool = False):
        if key not in self.data:
            if required:
                self.diags.append(f"{self.path(key)}: required field is missing")
            return default
        value = self.data[key]
        if value is None and not required:
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

    def check_range(self, key: str, value, low, high, low_inclusive=True, high_inclusive=True):
        if value is None:
            return value
        ok_low = value >= low if low_inclusive else value > low
        ok_high = value <= high if high_inclusive else value < high
        if not (ok_low and ok_high):
            lo = "[" if low_inclusive else "("
            hi = "]" if high_inclusive else ")"
            self.diags.append(f"{self.path(key)}: {value!r} outside {lo}{low}, {high}{hi}")
        return value


def _parse_config_dict(data: dict) -> tuple[PipelineConfig | None, list[str]]:
    diags: list[str] = []
    top = _Section(data, "", diags)

    language_l = top.get("language_l", str, required=True) or "xx"

    paths_sec = _Section(top.get("paths", dict, {}, required=True) or {}, "paths", diags)
    path_fields = {}
    for name in ("langlinks_l_to_en", "langlinks_en_to_l", "pages_en", "pages_l",
                 "articles_en", "articles_l", "output_dir"):
        path_fields[name] = paths_sec.get(name, str, required=True) or ""
    web_corpus = paths_sec.get("web_corpus", str)

    tok_sec = _Section(top.get("tokenizer", dict, {}) or {}, "tokenizer", diags)
    tokenizer = TokenizerSpec(
        kind=tok_sec.get("kind", str, "whitespace"),
        vocab_source=tok_sec.get("vocab_source", str),
        split_token_text=tok_sec.get("split_token_text", str, "[SPLIT]"),
        split_token_id=tok_sec.get("split_token_id", int, 0),
    )
    if tokenizer.kind not in ("whitespace", "byte", "external"):
        diags.append(f"tokenizer.kind: unknown kind {tokenizer.kind!r}")
    if tokenizer.kind == "external" and not tokenizer.vocab_source:
        diags.append("tokenizer.vocab_source: required for the external kind")
    if not tokenizer.split_token_text:
        diags.append("tokenizer.split_token_text: must be non-empty")

    pack_sec = _Section(top.get("pack", dict, {}) or {}, "pack", diags)
    pack_budget = pack_sec.get("n_budget", int, 4096)
    pack_sec.check_range("n_budget", pack_budget, 4, 2**31)
    policy = pack_sec.get("direction_policy", str, "en_first")
    if policy not in ("en_first", "l_first", "mix"):
        diags.append(f"pack.direction_policy: unknown policy {policy!r}")
        policy = "en_first"
    raw_ratio = pack_sec.data.get("mix_ratio", 0.5)
    mix_ratio = parse_mix_ratio(raw_ratio, "pack.mix_ratio", diags)

    slide_sec = _Section(top.get("slide", dict, {}) or {}, "slide", diags)
    slide_kind = slide_sec.get("kind", str, "optimized")
    if slide_kind not in ("optimized", "standard"):
        diags.append(f"slide.kind: unknown kind {slide_kind!r}")
        slide_kind = "optimized"
    slide_budget = slide_sec.get("n_budget", int, pack_budget if pack_budget else 4096)

    split_sec = _Section(top.get("split", dict, {}) or {}, "split", diags)
    fraction = split_sec.get("validation_fraction", float, 0.001)
    split_sec.check_range("validation_fraction", fraction, 0.0, 1.0, high_inclusive=False)
    split_seed = split_sec.get("seed", int, 32)

    retrieval = None
    if data.get("retrieval") is not None:
        ret_sec = _Section(data["retrieval"], "retrieval", diags)
        threshold = ret_sec.get("threshold", float, 0.75)
        ret_sec.check_range("threshold", threshold, 0.0, 1.0)
        max_results = ret_sec.get("max_results", int, 3)
        ret_sec.check_range("max_results", max_results, 1, 2**31)
        pool_k = ret_sec.get("candidate_pool_k", int, 100)
        ret_sec.check_range("candidate_pool_k", pool_k, 1, 2**31)
        dim = ret_sec.get("dim", int, 16)
        ret_sec.check_range("dim", dim, 1, 2**31)
        provider = ret_sec.get("provider", str, "mock")
        if provider not in ("mock", "file", "wire"):
            diags.append(f"retrieval.provider: unknown provider {provider!r}")
            provider = "mock"
        if provider == "file" and not ret_sec.get("cache_path", str):
            diags.append("retrieval.cache_path: required for the file provider")
        if provider == "wire" and not ret_sec.get("endpoint", str):
            diags.append("retrieval.endpoint: required for the wire provider")
        retrieval = RetrievalSettings(
            threshold=0.75 if threshold is None else threshold,
            max_results=3 if max_results is None else max_results,
            candidate_pool_k=100 if pool_k is None else pool_k,
            provider=provider,
            dim=dim,
            seed=ret_sec.get("seed", int, 0),
            cache_path=ret_sec.get("cache_path", str),
            endpoint=ret_sec.get("endpoint", str),
            auth_token=ret_sec.get("auth_token", str),
            timeout_s=ret_sec.get("timeout_s", float, 30.0),
            max_retries=ret_sec.get("max_retries", int, 3),
        )

    shard_max_bytes = top.get("shard_max_bytes", int, DEFAULT_SHARD_MAX_BYTES)
    top.check_range("shard_max_bytes", shard_max_bytes, 16, 2**62)

    if pack_budget is not None and slide_budget is not None and pack_budget != slide_budget:
        diags.append(
            f"pack.n_budget={pack_budget} and slide.n_budget={slide_budget} must be equal"
        )

    if diags:
        return None, diags

    cfg = PipelineConfig(
        language_l=language_l,
        paths=PipelinePaths(web_corpus=web_corpus, **path_fields),
        tokenizer=tokenizer,
        pack=PackConfig(
            n_budget=pack_budget,
            direction_policy=policy,
            mix_ratio=mix_ratio,
            seed=pack_sec.get("seed", int, 0),
            repeat_titles=pack_sec.get("repeat_titles", bool, True),
            truncate_oversize=pack_sec.get("truncate_oversize", bool, True),
        ),
        slide=SlidePolicy(
            kind=slide_kind,
            n_budget=slide_budget,
            keep_final_partial=slide_sec.get("keep_final_partial", bool, True),
        ),
        split=SplitConfig(validation_fraction=fraction, seed=split_seed),
        retrieval=retrieval,
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
    if cfg.retrieval is not None and p.web_corpus:
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
