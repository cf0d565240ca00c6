"""Stage implementations behind the CLI.

Every stage reads its inputs from disk and writes its outputs to disk, so each
is runnable in isolation. Artifact bytes are a pure function of config and
inputs: every stage runs in one process and handles its streams in
deterministic order.

Text is tokenized only by the pack stage: it encodes each context once, in
corpus order, and later stages work from the ids and counts it wrote.

Output layout under paths.output_dir:
    pairs.tsv                 aligned pair map (align)
    pseudo_pairs.jsonl        retrieval-built pairs (retrieve, optional)
    contexts.jsonl            context index: pair, seq_index, direction, origin,
                              token_len, per-language token counts (pack)
    contexts.bin              context token ids, one u32 record per index
                              line, in the shard record format (pack)
    contexts_text.jsonl       rendered context debug dump (pack --emit-text)
    windows-train.bin         staged windows (slide)
    windows-validation.bin
    windows_meta.json
    shards/<split>/           rolled shard files + manifest.json (export)
    stats.json                per-language token totals (stats)
    run_report.jsonl          event log (every stage)
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterable, Iterator

from .alignment import (
    AlignTally,
    ArticlePair,
    ArticleStore,
    PairId,
    build_pair_map,
    join_articles,
    load_pair_map,
    save_pair_map,
)
from .config import PipelineConfig
from .dump_ingest import ParseTally, parse_langlinks_dump, parse_pages_dump
from .export import (
    ContextEntry,
    CorpusStats,
    compute_stats,
    config_digest,
    encode_window_record,
    iter_shard_records,
    split_validation,
    write_shards,
)
from .packing import PackTally, direction_for, pack_pair
from .report import RunReport
from .retrieval import (
    CandidateDoc,
    CachedEmbeddingProvider,
    MockEmbeddingProvider,
    RetrievalTally,
    VectorIndex,
    WireEmbeddingProvider,
    build_augmented_pairs,
    extract_keywords,
    read_candidate_corpus,
    two_step_retrieve,
)
from .sliding import WindowShard, slide_optimized, slide_optimized_lossy, slide_standard
from .tokenization import make_tokenizer

PAIRS_NAME = "pairs.tsv"
PSEUDO_PAIRS_NAME = "pseudo_pairs.jsonl"
CONTEXTS_NAME = "contexts.jsonl"
CONTEXT_IDS_NAME = "contexts.bin"
CONTEXTS_TEXT_NAME = "contexts_text.jsonl"
WINDOWS_META_NAME = "windows_meta.json"
STATS_NAME = "stats.json"
REPORT_NAME = "run_report.jsonl"
SPLITS = ("train", "validation")


class StageGuard:
    """Removes the files a stage created if the stage dies part-way."""

    def __init__(self):
        self.paths: list[Path] = []

    def track(self, path: str | Path) -> Path:
        p = Path(path)
        self.paths.append(p)
        return p

    def __enter__(self) -> "StageGuard":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for p in self.paths:
                if p.is_dir():
                    for child in sorted(p.rglob("*"), reverse=True):
                        if child.is_file():
                            child.unlink(missing_ok=True)
                        else:
                            child.rmdir()
                    p.rmdir()
                else:
                    p.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# JSONL round-trips for intermediate artifacts


def context_to_dict(entry: ContextEntry) -> dict:
    return {
        "pair": [entry.pair.id_l, entry.pair.id_en],
        "seq_index": entry.seq_index,
        "direction": entry.direction,
        "origin": entry.origin,
        "token_len": entry.token_len,
        "per_language_tokens": entry.per_language,
    }


def read_contexts_jsonl(path: str | Path) -> list[ContextEntry]:
    """Read the context index, refusing lines that are not index entries
    (such as a contexts.jsonl written before the index format)."""
    entries = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            data = json.loads(line)
            try:
                entries.append(ContextEntry(
                    pair=PairId(data["pair"][0], data["pair"][1]),
                    seq_index=data["seq_index"],
                    direction=data["direction"],
                    origin=data["origin"],
                    token_len=data["token_len"],
                    per_language=data["per_language_tokens"],
                ))
            except KeyError as e:
                raise ValueError(f"{path}:{lineno}: not a context index line, "
                                 f"missing {e}; rerun pack") from None
    return entries


def pair_to_dict(pair: ArticlePair) -> dict:
    return {
        "id_l": pair.pair.id_l,
        "id_en": pair.pair.id_en,
        "title_en": pair.title_en,
        "title_l": pair.title_l,
        "text_en": pair.text_en,
        "text_l": pair.text_l,
        "lang_l": pair.lang_l,
        "origin": pair.origin,
    }


def pair_from_dict(data: dict) -> ArticlePair:
    return ArticlePair(
        pair=PairId(data["id_l"], data["id_en"]),
        title_en=data["title_en"],
        title_l=data["title_l"],
        text_en=data["text_en"],
        text_l=data["text_l"],
        lang_l=data["lang_l"],
        origin=data.get("origin", "wiki"),
    )


def read_pairs_jsonl(path: str | Path) -> Iterator[ArticlePair]:
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if line.strip():
                yield pair_from_dict(json.loads(line))


def _dump_tsv(records: Iterable, path: Path) -> Iterator:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            values = [str(getattr(rec, name)) for name in rec.__dataclass_fields__]
            f.write("\t".join(values) + "\n")
            yield rec


# ---------------------------------------------------------------------------
# Stages


def stage_align(cfg: PipelineConfig, report: RunReport, dump_tsv: bool = False) -> Path:
    start = time.perf_counter()
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    tallies = {name: ParseTally() for name in
               ("langlinks_l_to_en", "pages_en", "langlinks_en_to_l", "pages_l")}
    streams = {
        "langlinks_l_to_en": parse_langlinks_dump(
            cfg.paths.langlinks_l_to_en, "en", tallies["langlinks_l_to_en"]
        ),
        "pages_en": parse_pages_dump(cfg.paths.pages_en, tally=tallies["pages_en"]),
        "langlinks_en_to_l": parse_langlinks_dump(
            cfg.paths.langlinks_en_to_l, cfg.language_l, tallies["langlinks_en_to_l"]
        ),
        "pages_l": parse_pages_dump(cfg.paths.pages_l, tally=tallies["pages_l"]),
    }
    if dump_tsv:
        debug = out / "debug"
        streams = {
            name: _dump_tsv(stream, debug / f"{name}.tsv") for name, stream in streams.items()
        }
    align_tally = AlignTally()
    with StageGuard() as guard:
        pairs = build_pair_map(
            streams["langlinks_l_to_en"],
            streams["pages_en"],
            streams["langlinks_en_to_l"],
            streams["pages_l"],
            tally=align_tally,
        )
        pairs_path = guard.track(out / PAIRS_NAME)
        save_pair_map(pairs, pairs_path)
    report.event(
        "stage_complete",
        stage="align",
        elapsed_s=round(time.perf_counter() - start, 3),
        pair_count=len(pairs),
        alignment=align_tally.as_dict(),
        parse_tallies={name: t.as_dict() for name, t in tallies.items()},
    )
    return pairs_path


def make_embedding_provider(cfg: PipelineConfig):
    settings = cfg.retrieval
    if settings is None:
        raise ValueError("retrieval section is not configured")
    if settings.provider == "mock":
        return MockEmbeddingProvider(dim=settings.dim, seed=settings.seed)
    if settings.provider == "file":
        return CachedEmbeddingProvider.from_file(settings.cache_path)
    if settings.provider == "wire":
        return WireEmbeddingProvider(
            endpoint=settings.endpoint,
            auth_token=settings.auth_token,
            timeout_s=settings.timeout_s,
            max_retries=settings.max_retries,
        )
    raise ValueError(f"unknown embedding provider {settings.provider!r}")


def build_l_to_en_title_map(cfg: PipelineConfig) -> dict[str, str]:
    """title_l -> title_en via the target wiki's interlanguage links."""
    id_to_title_l: dict[int, str] = {}
    for page in parse_pages_dump(cfg.paths.pages_l):
        if page.namespace == 0 and not page.is_redirect and page.page_id not in id_to_title_l:
            id_to_title_l[page.page_id] = page.title
    title_map: dict[str, str] = {}
    for link in parse_langlinks_dump(cfg.paths.langlinks_l_to_en, "en"):
        title_l = id_to_title_l.get(link.from_page_id)
        if title_l is not None and link.target_title.strip():
            title_map.setdefault(title_l, link.target_title)
    return title_map


def stage_retrieve(cfg: PipelineConfig, report: RunReport, batch_size: int = 256) -> Path:
    from .dump_ingest import read_extracted_articles

    start = time.perf_counter()
    if cfg.retrieval is None:
        raise ValueError("retrieval section is not configured")
    if not cfg.paths.web_corpus:
        raise ValueError("paths.web_corpus is not configured")
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    provider = make_embedding_provider(cfg)
    ret_cfg = cfg.retrieval.to_retrieval_config()

    corpus_texts: dict[str, str] = {}
    docs: list[CandidateDoc] = []
    batch_ids: list[str] = []
    batch_texts: list[str] = []

    def flush_batch() -> None:
        if not batch_texts:
            return
        vectors = provider.embed_batch(batch_texts)
        for doc_id, text, vec in zip(batch_ids, batch_texts, vectors):
            docs.append(CandidateDoc(doc_id, text, vec))
        batch_ids.clear()
        batch_texts.clear()

    for doc_id, text in read_candidate_corpus(cfg.paths.web_corpus):
        corpus_texts[doc_id] = text
        batch_ids.append(doc_id)
        batch_texts.append(text)
        if len(batch_texts) >= batch_size:
            flush_batch()
    flush_batch()
    index = VectorIndex.build(docs)

    title_map = build_l_to_en_title_map(cfg)
    tally = RetrievalTally()
    pseudo_count = 0
    with StageGuard() as guard:
        pseudo_path = guard.track(out / PSEUDO_PAIRS_NAME)
        with open(pseudo_path, "w", encoding="utf-8") as f:
            for article in read_extracted_articles(cfg.paths.articles_l, cfg.language_l):
                if not article.text.strip():
                    continue
                keywords = extract_keywords(article, title_map, tally)
                results = two_step_retrieve(keywords, index, provider, ret_cfg, tally)
                for pair in build_augmented_pairs(article, results, corpus_texts, tally):
                    f.write(json.dumps(pair_to_dict(pair), ensure_ascii=False, sort_keys=True))
                    f.write("\n")
                    pseudo_count += 1
    report.event(
        "stage_complete",
        stage="retrieve",
        elapsed_s=round(time.perf_counter() - start, 3),
        corpus_docs=len(index),
        pseudo_pairs=pseudo_count,
        retrieval=tally.as_dict(),
    )
    return pseudo_path


def _iter_source_pairs(cfg: PipelineConfig, align_tally: AlignTally) -> Iterator[ArticlePair]:
    out = cfg.output_dir
    pair_ids = load_pair_map(out / PAIRS_NAME)
    store_en = ArticleStore(cfg.paths.articles_en, "en", align_tally)
    store_l = ArticleStore(cfg.paths.articles_l, cfg.language_l, align_tally)
    yield from join_articles(pair_ids, store_en, store_l, align_tally)
    pseudo_path = out / PSEUDO_PAIRS_NAME
    if pseudo_path.exists():
        yield from read_pairs_jsonl(pseudo_path)


def stage_pack(cfg: PipelineConfig, report: RunReport, emit_text: bool = False) -> Path:
    start = time.perf_counter()
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    tokenizer = make_tokenizer(cfg.tokenizer)
    align_tally = AlignTally()
    tally = PackTally()
    context_count = 0
    with StageGuard() as guard:
        contexts_path = guard.track(out / CONTEXTS_NAME)
        ids_path = guard.track(out / CONTEXT_IDS_NAME)
        text_path = out / CONTEXTS_TEXT_NAME
        text_file = open(guard.track(text_path), "w", encoding="utf-8") if emit_text else None
        try:
            with open(contexts_path, "w", encoding="utf-8") as f, open(ids_path, "wb") as fb:
                for pair in _iter_source_pairs(cfg, align_tally):
                    direction = direction_for(pair.pair, cfg.pack)
                    for ctx in pack_pair(pair, tokenizer, cfg.pack, direction, tally):
                        # The one encode of this context; whitespace ids are
                        # assigned here, in corpus order.
                        ids, per_language = ctx.encode(tokenizer)
                        fb.write(encode_window_record(ids))
                        entry = ContextEntry(ctx.pair, ctx.seq_index, ctx.direction,
                                             ctx.origin, len(ids), per_language)
                        f.write(json.dumps(context_to_dict(entry), ensure_ascii=False,
                                           sort_keys=True))
                        f.write("\n")
                        context_count += 1
                        if text_file is not None:
                            text_file.write(json.dumps({
                                "pair": [ctx.pair.id_l, ctx.pair.id_en],
                                "seq_index": ctx.seq_index,
                                "direction": ctx.direction,
                                "token_len": entry.token_len,
                                "text": ctx.rendered_text(tokenizer.split_token_text),
                            }, ensure_ascii=False, sort_keys=True))
                            text_file.write("\n")
        finally:
            if text_file is not None:
                text_file.close()
    report.event(
        "stage_complete",
        stage="pack",
        elapsed_s=round(time.perf_counter() - start, 3),
        context_count=context_count,
        packing=tally.as_dict(),
        join=align_tally.as_dict(),
    )
    return contexts_path


def _context_ids(
    path: Path, entries: list[ContextEntry], validation: set[int], held: list[list[int]]
) -> Iterator[list[int]]:
    """Stream the train contexts' ids from contexts.bin in corpus order.

    Validation contexts are appended to `held` instead. Every record must
    match its index line: a missing, extra or resized record raises.
    """
    count = 0
    for i, ids in enumerate(iter_shard_records(path)):
        count = i + 1
        if i >= len(entries):
            continue  # counted, then reported below
        if len(ids) != entries[i].token_len:
            raise ValueError(f"{path}: record {i} holds {len(ids)} tokens, "
                             f"the index's token_len is {entries[i].token_len}")
        if i in validation:
            held.append(ids)
        else:
            yield ids
    if count != len(entries):
        raise ValueError(f"{path}: {count} records, the context index has "
                         f"{len(entries)} lines")


def stage_slide(cfg: PipelineConfig, report: RunReport, discard_tails: bool = False) -> Path:
    start = time.perf_counter()
    out = cfg.output_dir
    entries = read_contexts_jsonl(out / CONTEXTS_NAME)
    train_idx, val_idx = split_validation(range(len(entries)), cfg.split)
    held: list[list[int]] = []
    train_ids = _context_ids(out / CONTEXT_IDS_NAME, entries, set(val_idx), held)
    split_token_id = cfg.tokenizer.split_token_id

    meta: dict = {
        "policy": cfg.slide.kind,
        "n_budget": cfg.slide.n_budget,
        "discard_tails": discard_tails,
        "splits": {},
    }
    n = cfg.slide.n_budget
    with StageGuard() as guard:
        # Train first: streaming it fills `held` before validation is read.
        for split_name, indices, ids_stream in (("train", train_idx, train_ids),
                                                ("validation", val_idx, held)):
            if cfg.slide.kind == "standard":
                windows = slide_standard(ids_stream, n, cfg.slide.keep_final_partial)
            elif discard_tails:
                windows = slide_optimized_lossy(ids_stream, n, split_token_id)
            else:
                windows = slide_optimized(ids_stream, n, split_token_id)
            path = guard.track(out / f"windows-{split_name}.bin")
            window_count = 0
            token_total = 0
            with open(path, "wb") as f:
                for window in windows:
                    f.write(encode_window_record(window.ids))
                    window_count += 1
                    token_total += len(window.ids)
            per_language: dict[str, int] = {}
            for i in indices:
                for lang, tokens in entries[i].per_language.items():
                    per_language[lang] = per_language.get(lang, 0) + tokens
            meta["splits"][split_name] = {
                "window_count": window_count,
                "token_total": token_total,
                "context_count": len(indices),
                "per_language_tokens": dict(sorted(per_language.items())),
            }
        meta_path = guard.track(out / WINDOWS_META_NAME)
        meta_path.write_text(
            json.dumps(meta, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
    report.event(
        "stage_complete",
        stage="slide",
        elapsed_s=round(time.perf_counter() - start, 3),
        **{name: info["window_count"] for name, info in meta["splits"].items()},
    )
    return meta_path


def stage_export(cfg: PipelineConfig, report: RunReport) -> Path:
    start = time.perf_counter()
    out = cfg.output_dir
    meta = json.loads((out / WINDOWS_META_NAME).read_text(encoding="utf-8"))
    digest = config_digest(cfg.effective_dict())
    shards_root = out / "shards"
    manifests = {}
    with StageGuard() as guard:
        for split_name in SPLITS:
            split_meta = meta["splits"][split_name]
            windows_path = out / f"windows-{split_name}.bin"
            windows = (
                WindowShard(ids, i)
                for i, ids in enumerate(iter_shard_records(windows_path))
            )
            split_dir = guard.track(shards_root / split_name)
            manifest = write_shards(
                windows,
                split_dir,
                config_digest=digest,
                tokenizer_kind=cfg.tokenizer.kind,
                n_budget=cfg.slide.n_budget,
                per_language_tokens=split_meta["per_language_tokens"],
                seed=cfg.split.seed,
                split=split_name,
                shard_max_bytes=cfg.shard_max_bytes,
            )
            if manifest.window_count != split_meta["window_count"]:
                raise ValueError(
                    f"{split_name}: staged {split_meta['window_count']} windows, "
                    f"exported {manifest.window_count}"
                )
            manifests[split_name] = manifest
    report.event(
        "stage_complete",
        stage="export",
        elapsed_s=round(time.perf_counter() - start, 3),
        **{name: m.window_count for name, m in manifests.items()},
    )
    return shards_root


def stage_stats(cfg: PipelineConfig, report: RunReport) -> Path:
    start = time.perf_counter()
    out = cfg.output_dir
    stats: CorpusStats = compute_stats(read_contexts_jsonl(out / CONTEXTS_NAME))
    with StageGuard() as guard:
        stats_path = guard.track(out / STATS_NAME)
        stats_path.write_text(
            json.dumps(stats.to_dict(), indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
    report.event(
        "stage_complete",
        stage="stats",
        elapsed_s=round(time.perf_counter() - start, 3),
        sources=stats.to_dict()["sources"],
    )
    return stats_path


def run_all(
    cfg: PipelineConfig,
    report: RunReport,
    emit_text: bool = False,
    discard_tails: bool = False,
    dump_tsv: bool = False,
) -> None:
    start = time.perf_counter()
    stage_align(cfg, report, dump_tsv=dump_tsv)
    if cfg.retrieval is not None and cfg.paths.web_corpus:
        stage_retrieve(cfg, report)
    stage_pack(cfg, report, emit_text=emit_text)
    stage_slide(cfg, report, discard_tails=discard_tails)
    stage_export(cfg, report)
    stage_stats(cfg, report)
    elapsed = time.perf_counter() - start
    meta = json.loads((cfg.output_dir / WINDOWS_META_NAME).read_text(encoding="utf-8"))
    token_total = sum(info["token_total"] for info in meta["splits"].values())
    pair_count = sum(1 for line in open(cfg.output_dir / PAIRS_NAME, encoding="utf-8") if line.strip())
    report.event(
        "run_complete",
        elapsed_s=round(elapsed, 3),
        pair_count=pair_count,
        token_total=token_total,
        pairs_per_s=round(pair_count / elapsed, 1) if elapsed > 0 else None,
        tokens_per_s=round(token_total / elapsed, 1) if elapsed > 0 else None,
    )
