"""Per-layer metrics: which calls the traced run wraps and what they add up to.

Targets are named as `module:attribute`, using the module namespace the
caller looks the name up in: `xlpack.pipeline:build_pair_map` because the
pipeline calls its own imported binding, `xlpack.alignment:build_title_index`
because `build_pair_map` calls the one in its module. Several targets may feed
one span name. A span name whose targets are all gone yields no metrics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

STAGES = ("align", "retrieve", "pack", "slide", "export", "stats")


def _tokens(args, result) -> int:
    return result if isinstance(result, int) else len(result)


def _texts(args, result) -> int:
    return len(args[1])  # args[0] is the provider


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


def _nonempty(args, result) -> int:
    return 1 if result else 0


@dataclass(frozen=True)
class Target:
    path: str
    span: str
    kind: str = "call"  # "call", or "gen" for generator functions timed per next()
    detail: bool = False  # also keep each span with its parent link
    counter: Callable | None = None  # (args, result) -> units added to the span


P = "xlpack.pipeline:"
TARGETS = [
    *(Target(P + f"stage_{s}", f"stage.{s}", detail=True) for s in STAGES),
    Target(P + "context_to_dict", "pipeline.context_io"),
    Target(P + "read_contexts_jsonl", "pipeline.context_io", detail=True),
    Target(P + "parse_langlinks_dump", "dump_ingest", "gen"),
    Target(P + "parse_pages_dump", "dump_ingest", "gen"),
    Target("xlpack.dump_ingest:iter_insert_tuples", "dump_ingest.scan", "gen"),
    Target("xlpack.alignment:build_title_index", "alignment.title_index", detail=True),
    Target(P + "build_pair_map", "alignment.resolve", detail=True),
    Target(P + "ArticleStore", "alignment.article_index", detail=True),
    Target("xlpack.alignment:ArticleStore.get", "alignment.article_read"),
    Target(P + "join_articles", "alignment.join", "gen"),
    Target("xlpack.tokenization:Tokenizer.encode", "tokenization", counter=_tokens),
    Target("xlpack.tokenization:Tokenizer.count", "tokenization", counter=_tokens),
    Target(P + "pack_pair", "packing"),
    Target(P + "slide_optimized", "sliding", "gen"),
    Target(P + "slide_optimized_lossy", "sliding", "gen"),
    Target(P + "slide_standard", "sliding", "gen"),
    Target(P + "write_shards", "export", detail=True),
    Target(P + "iter_shard_records", "export.staged_read", "gen", counter=_file_bytes),
    Target("xlpack.retrieval:VectorIndex.build", "retrieval.index_build", detail=True),
    Target("xlpack.retrieval:MockEmbeddingProvider.embed_batch", "retrieval.embed",
           counter=_texts),
    Target("xlpack.retrieval:CachedEmbeddingProvider.embed_batch", "retrieval.embed",
           counter=_texts),
    Target("xlpack.retrieval:WireEmbeddingProvider.embed_batch", "retrieval.embed",
           counter=_texts),
    Target("xlpack.retrieval:VectorIndex.search", "retrieval.search"),
    Target(P + "two_step_retrieve", "retrieval.query", counter=_nonempty),
]


class Trace:
    """Sums over the aggregates a traced run wrote, by span name."""

    def __init__(self, data: dict):
        self.rows = data["aggregates"]
        self.missing = set(data["missing"])
        self.live = {t.span for t in TARGETS if t.path in data["installed"]}

    def has(self, span: str) -> bool:
        return span in self.live

    def sum(self, span: str, field: str, parent: str | None = "*") -> float:
        return sum(r[field] for r in self.rows
                   if r["name"] == span and (parent == "*" or r["parent"] == parent))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: Trace, events: list[dict], facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced `all` run.

    `events` is the traced run's run_report.jsonl; `facts` carries what the
    benchmark measured outside the traced process (stage processes, pool
    speed-up, output sizes, shard tokens and windows, n_budget).
    """
    m: dict[str, float] = {}
    done = {e["stage"]: e for e in events if e.get("event") == "stage_complete"}
    align, pack = done.get("align", {}), done.get("pack", {})
    t = trace

    for stage in STAGES:
        wall, rss = facts["stages"].get(stage, (0.0, 0.0))
        m[f"stage.{stage}.s"] = wall
        m[f"stage.{stage}.rss_mb"] = rss
    m["pipeline.intermediate_mb"] = facts["intermediate_mb"]
    if t.has("pipeline.context_io"):
        m["pipeline.context_io_s"] = t.sum("pipeline.context_io", "total_s")

    if t.has("dump_ingest"):
        m["dump_ingest.s"] = t.sum("dump_ingest", "total_s")
    if t.has("dump_ingest.scan"):
        m["dump_ingest.rows"] = t.sum("dump_ingest.scan", "items")
        m["dump_ingest.scans"] = t.sum("dump_ingest.scan", "calls")
        if "dump_ingest.s" in m:
            m["dump_ingest.rows_per_s"] = _ratio(m["dump_ingest.rows"], m["dump_ingest.s"])
    if "parse_tallies" in align:
        m["dump_ingest.malformed"] = sum(
            tally.get("malformed", 0) for tally in align["parse_tallies"].values())

    if t.has("alignment.title_index"):
        m["alignment.title_index_s"] = t.sum("alignment.title_index", "self_s")
    if t.has("alignment.resolve"):
        m["alignment.resolve_s"] = t.sum("alignment.resolve", "self_s")
    m["alignment.pairs"] = facts["pairs"]
    if "links_dropped" in align.get("alignment", {}):
        m["alignment.links_dropped"] = align["alignment"]["links_dropped"]
    if t.has("alignment.article_index"):
        m["alignment.article_index_s"] = t.sum("alignment.article_index", "total_s")
    if t.has("alignment.join"):
        m["alignment.join_s"] = t.sum("alignment.join", "total_s")
    if t.has("alignment.article_read"):
        m["alignment.article_reads"] = t.sum("alignment.article_read", "calls")
    if "pairs_missing_text" in pack.get("join", {}):
        m["alignment.pairs_missing_text"] = pack["join"]["pairs_missing_text"]

    if t.has("tokenization"):
        m["tokenization.s"] = t.sum("tokenization", "total_s")
        m["tokenization.calls"] = t.sum("tokenization", "calls")
        m["tokenization.tokens"] = t.sum("tokenization", "units")
        m["tokenization.work_ratio"] = _ratio(m["tokenization.tokens"], facts["token_total"])

    if t.has("packing"):
        m["packing.s"] = t.sum("packing", "self_s")
    if "pairs_packed" in pack.get("packing", {}):
        m["packing.pairs"] = pack["packing"]["pairs_packed"]
    if "context_count" in pack:
        m["packing.contexts"] = pack["context_count"]
    m["packing.pool_speedup_w2"] = facts["pool_speedup_w2"]

    if t.has("sliding"):
        m["sliding.s"] = t.sum("sliding", "total_s")
    m["sliding.windows"] = facts["windows"]
    m["sliding.fill"] = _ratio(facts["token_total"], facts["windows"] * facts["n_budget"])

    if t.has("export"):
        m["export.s"] = t.sum("export", "total_s")
    m["export.bytes"] = facts["shard_bytes"]
    if t.has("export.staged_read"):
        m["export.bytes_staged"] = t.sum("export.staged_read", "units")

    if t.has("retrieval.index_build"):
        m["retrieval.index_build_s"] = t.sum("retrieval.index_build", "total_s")
    if t.has("retrieval.embed"):
        m["retrieval.embed_s"] = t.sum("retrieval.embed", "total_s")
        if t.has("retrieval.query"):
            calls = t.sum("retrieval.embed", "calls", parent="retrieval.query")
            m["retrieval.embed_calls"] = calls
            m["retrieval.texts_per_call"] = _ratio(
                t.sum("retrieval.embed", "units", parent="retrieval.query"), calls)
    if t.has("retrieval.search"):
        m["retrieval.search_s"] = t.sum("retrieval.search", "total_s")
        m["retrieval.search_calls"] = t.sum("retrieval.search", "calls")
    if t.has("retrieval.query"):
        m["retrieval.hit_ratio"] = _ratio(t.sum("retrieval.query", "units"),
                                          t.sum("retrieval.query", "calls"))
    m["retrieval.pseudo_pairs"] = facts["pseudo_pairs"]

    m["trace.overhead_s"] = facts["traced_wall_s"] - facts["untraced_wall_s"]
    return m


# name -> (unit, better), in report order
METRICS = {
    **{f"stage.{s}.s": ("s", "lower") for s in STAGES},
    **{f"stage.{s}.rss_mb": ("MB", "lower") for s in STAGES},
    "pipeline.intermediate_mb": ("MB", "lower"),
    "pipeline.context_io_s": ("s", "lower"),
    "dump_ingest.s": ("s", "lower"),
    "dump_ingest.rows": ("count", "higher"),
    "dump_ingest.rows_per_s": ("1/s", "higher"),
    "dump_ingest.scans": ("count", "lower"),
    "dump_ingest.malformed": ("count", "lower"),
    "alignment.title_index_s": ("s", "lower"),
    "alignment.resolve_s": ("s", "lower"),
    "alignment.pairs": ("count", "higher"),
    "alignment.links_dropped": ("count", "higher"),
    "alignment.article_index_s": ("s", "lower"),
    "alignment.join_s": ("s", "lower"),
    "alignment.article_reads": ("count", "lower"),
    "alignment.pairs_missing_text": ("count", "lower"),
    "tokenization.s": ("s", "lower"),
    "tokenization.calls": ("count", "lower"),
    "tokenization.tokens": ("count", "lower"),
    "tokenization.work_ratio": ("ratio", "lower"),
    "packing.s": ("s", "lower"),
    "packing.pairs": ("count", "higher"),
    "packing.contexts": ("count", "lower"),
    "packing.pool_speedup_w2": ("ratio", "higher"),
    "sliding.s": ("s", "lower"),
    "sliding.windows": ("count", "lower"),
    "sliding.fill": ("ratio", "higher"),
    "export.s": ("s", "lower"),
    "export.bytes": ("bytes", "lower"),
    "export.bytes_staged": ("bytes", "lower"),
    "retrieval.index_build_s": ("s", "lower"),
    "retrieval.embed_s": ("s", "lower"),
    "retrieval.embed_calls": ("count", "lower"),
    "retrieval.texts_per_call": ("count", "higher"),
    "retrieval.search_s": ("s", "lower"),
    "retrieval.search_calls": ("count", "lower"),
    "retrieval.hit_ratio": ("ratio", "higher"),
    "retrieval.pseudo_pairs": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
}
