"""Pipeline configuration: one JSON document, validated with field-path
diagnostics before any stage runs. Flags may override individual fields via
dotted paths (applied to the raw document prior to validation).

Each section's dataclass is the one record of its rules: its annotations give
the fields' kinds and its __post_init__ the rules on their values. This module
reads the JSON into those dataclasses and adds the section path to their
errors."""

from __future__ import annotations

import json
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

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

    def __post_init__(self) -> None:
        if not 16 <= self.shard_max_bytes <= 2**62:
            raise ValueError(f"shard_max_bytes: {self.shard_max_bytes!r} outside [16, {2**62}]")
        if self.pack.n_budget != self.slide.n_budget:
            raise ValueError(f"pack.n_budget={self.pack.n_budget} and "
                             f"slide.n_budget={self.slide.n_budget} must be equal")

    def effective_dict(self) -> dict:
        """Canonical dict of the settings that shape the output bytes.

        Where files live is left out: the `paths` section,
        `tokenizer.vocab_source` and `retrieval.cache_path`. So the same
        inputs and settings give the same dict wherever they and the output
        dir are; the inputs' contents are not covered.
        """
        settings = asdict(self)
        del settings["paths"]
        del settings["tokenizer"]["vocab_source"]
        if settings["retrieval"] is not None:
            del settings["retrieval"]["cache_path"]
        return settings


def parse_mix_ratio(text: str) -> float:
    """The en-first probability of an "a:b" ratio string (en:L)."""
    try:
        nums = [float(p) for p in text.split(":")]
    except ValueError:
        nums = []
    if len(nums) != 2 or min(nums) < 0 or sum(nums) == 0:
        raise ValueError(f"expected number or 'a:b' ratio, got {text!r}")
    return nums[0] / (nums[0] + nums[1])


def field_kinds(schema: type) -> dict[str, type]:
    """Each field's kind, read from its annotation; `X | None` reads as X."""
    hints = typing.get_type_hints(schema)
    kinds = {}
    for f in fields(schema):
        kind = hints[f.name]
        args = typing.get_args(kind)
        if type(None) in args:
            (kind,) = [a for a in args if a is not type(None)]
        kinds[f.name] = kind
    return kinds


class _Section:
    """One dict section read into its dataclass `schema`, recording diagnostics.

    A key that is not one of the schema's fields is refused, a field without
    a default is required, a missing or null field reads as the field's
    default, and a value must be of its field's kind (a dataclass field takes
    a dict). The schema's own errors, raised as "<field>: ...", are recorded
    under the section's path."""

    def __init__(self, data: dict, prefix: str, diags: list[str], schema: type):
        self.data = data
        self.prefix = prefix
        self.diags = diags
        self.schema = schema
        self.fields = {f.name: f for f in fields(schema)}
        self.kinds = field_kinds(schema)
        self.start = len(diags)
        for key in data:
            if key not in self.fields:
                diags.append(f"{self.path(key)}: unknown field")

    def path(self, key: str) -> str:
        return f"{self.prefix}.{key}" if self.prefix else key

    def get(self, key: str):
        spec = self.fields[key]
        kind = dict if is_dataclass(self.kinds[key]) else self.kinds[key]
        value = self.data.get(key)
        if value is None:
            if spec.default is MISSING and spec.default_factory is MISSING:
                self.diags.append(f"{self.path(key)}: required field is missing")
            return None if spec.default is MISSING else spec.default
        if kind in (int, float) and isinstance(value, bool):
            self.diags.append(f"{self.path(key)}: expected a number, got {value!r}")
            return None
        if kind is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, kind):
            self.diags.append(f"{self.path(key)}: expected {kind.__name__}, got {value!r}")
            return None
        return value

    def section(self, key: str) -> "_Section":
        return _Section(self.get(key) or {}, self.path(key), self.diags, self.kinds[key])

    def build(self, **given):
        """The schema built from the section's fields, with `given` ones as
        passed; None once the section, or a section inside it, has a
        diagnostic."""
        values = {key: self.get(key) for key in self.fields if key not in given}
        if len(self.diags) > self.start:
            return None
        try:
            return self.schema(**values, **given)
        except ValueError as e:
            self.diags.append(f"{self.prefix}.{e}" if self.prefix else str(e))
            return None


def _parse_config_dict(data: dict) -> PipelineConfig:
    diags: list[str] = []
    top = _Section(data, "", diags, PipelineConfig)
    paths = top.section("paths").build()
    tokenizer = top.section("tokenizer").build()

    pack_sec = top.section("pack")
    if isinstance(ratio := pack_sec.data.get("mix_ratio"), str):
        try:
            ratio = parse_mix_ratio(ratio)
        except ValueError as e:
            diags.append(f"{pack_sec.path('mix_ratio')}: {e}")
            ratio = None
        pack_sec.data = {**pack_sec.data, "mix_ratio": ratio}
    pack = pack_sec.build()

    slide_sec = top.section("slide")
    if pack is not None and slide_sec.data.get("n_budget") is None:
        # slide.n_budget must equal pack's, so it follows it.
        slide_sec.data = {**slide_sec.data, "n_budget": pack.n_budget}
    slide = slide_sec.build()

    split = top.section("split").build()
    retrieval = top.section("retrieval").build() if data.get("retrieval") is not None else None
    cfg = top.build(paths=paths, tokenizer=tokenizer, pack=pack, slide=slide, split=split,
                    retrieval=retrieval)
    if cfg is None:
        raise ConfigError(diags)
    return cfg


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
    return _parse_config_dict(data)
