"""Stage implementations behind the CLI.

Every stage reads its inputs from disk and writes its outputs to disk, so each
is runnable in isolation. Artifact bytes are a pure function of config and
inputs: every stage runs in one process and handles its streams in
deterministic order.

Pairs travel between stages as ids. pack joins them to their texts: aligned
pairs through both article stores, pseudo pairs through the target-language
store and paths.web_corpus. pack joins pseudo_pairs.jsonl only when the config
retrieves (a retrieval section and paths.web_corpus), so a file left by an
earlier run with retrieval on is ignored.

Text is tokenized only by the pack stage: it splits each title and paragraph
into tokenizer pieces once and prices it by their number. A context is two
paragraph ranges over a pair's articles, and its ids come from one mapping
call over the titles' pieces and two slices of the articles' flat pieces, in
corpus order; pack checks that each context's ids match its planned length and
the budget. Later stages work from the ids and counts it wrote.

slide plans each split's windows as token ranges from the index's token_len
values alone, then cuts the ranges out of the contexts.bin records, which it
streams once and checks against the index and the context rules. contexts.bin
is consumed: once both splits are written, slide removes it, so each token id
rests on disk once, in the shards. Another slide setting then needs a re-pack.

STAGES lists the stages in the order `all` runs them, with the files each reads
and the outputs it owns; the CLI, `all` and the input checks read it. A stage
runs inside _stage: its outputs are removed when it starts and again when it
fails, so a failed stage leaves none of them, and a debug output not asked for
in this run does not outlive it (a failed slide leaves contexts.bin, so a
mended slide needs no re-pack). Before any work, a stage checks the earlier
stages' outputs it reads and names the writer of a missing one. `all` removes
every stage's outputs before it starts, so a failed `all` leaves none of an
earlier run's.

Output layout under paths.output_dir:
    pairs.tsv                 aligned pair map (align)
    debug/<stream>.tsv        parsed dump records (align --dump-tsv)
    pseudo_pairs.jsonl        retrieval-built pairs as references, one
                              {"doc_id", "id_l"} line each (retrieve, optional)
    contexts.jsonl            context index, one ContextEntry per line:
                              origin, token_len and per_language_tokens (pack)
    contexts.bin              context token ids, one u32 record per index
                              line, in the shard record format (pack;
                              removed by a slide that completes)
    contexts_text.jsonl       rendered context debug dump (pack --emit-text)
    shards/<split>/           rolled window shard files + manifest.json (slide):
                              the split's window_count, token_total and
                              n_budget; its config_digest covers the slide
                              policy. per_language_tokens counts the split's
                              contexts, so with one split id per context it
                              sums to more than token_total under a policy
                              that drops tokens (lossy, or standard without
                              keep_final_partial)
    stats.json                per-language token totals (stats)
    run_report.jsonl          event log (every stage appends; none owns it)
"""

from __future__ import annotations

import json
import shutil
import time
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .alignment import (
    AlignTally,
    ArticlePair,
    ArticleStore,
    ArticleTally,
    build_pair_map,
    join_articles,
    load_pair_map,
    save_pair_map,
    scan_articles,
)
from .config import ConfigError, InputError, PipelineConfig
from .dump_ingest import ParseTally, parse_langlinks_dump, parse_pages_dump
from .export import (
    ContextEntry,
    compute_stats,
    config_digest,
    encode_window_record,
    iter_shard_records,
    read_manifest,
    read_shards,
    split_names,
    sum_tokens,
    write_shards,
)
from .packing import PackedContext, PackTally, direction_for, pack_pair
from .report import RunReport
from .sliding import (
    SlidePolicy,
    check_context,
    cut_windows,
    slide_optimized,
    slide_optimized_lossy,
    slide_standard,
)
from .tokenization import make_tokenizer
from .web import (
    RetrievalTally,
    extract_keywords,
    pseudo_pair,
    read_candidate_corpus,
    two_step_retrieve,
)

PAIRS_NAME = "pairs.tsv"
PSEUDO_PAIRS_NAME = "pseudo_pairs.jsonl"
CONTEXTS_NAME = "contexts.jsonl"
CONTEXT_IDS_NAME = "contexts.bin"
CONTEXTS_TEXT_NAME = "contexts_text.jsonl"
DEBUG_NAME = "debug"
SHARDS_NAME = "shards"
STATS_NAME = "stats.json"
REPORT_NAME = "run_report.jsonl"
SPLITS = ("train", "validation")
ALL = "all"  # the subcommand that runs every stage of STAGES in order


class Stage(NamedTuple):
    name: str  # the subcommand; stage_<name> runs it
    help: str
    paths: tuple[str, ...] = ()  # config fields naming the files it reads
    reads: tuple[str, ...] = ()  # earlier stages' outputs it reads
    outputs: tuple[str, ...] = ()  # files and trees under paths.output_dir it owns
    flag: str = ""  # a debug keyword of stage_<name>, offered as --<flag>
    flag_help: str = ""


STAGES = (
    Stage("align", "build and persist the bilingual pair map",
          ("paths.langlinks_l_to_en", "paths.langlinks_en_to_l", "paths.pages_en",
           "paths.pages_l"), outputs=(PAIRS_NAME, DEBUG_NAME),
          flag="dump_tsv", flag_help="write parsed dump records as TSV for inspection"),
    Stage("retrieve", "build pseudo pairs from a web corpus via semantic retrieval",
          ("paths.langlinks_l_to_en", "paths.pages_l", "paths.articles_l",
           "paths.web_corpus"), outputs=(PSEUDO_PAIRS_NAME,)),
    Stage("pack", "pack aligned pairs into delimiter-terminated contexts",
          ("paths.articles_en", "paths.articles_l", "paths.web_corpus",
           "tokenizer.vocab_source"), reads=(PAIRS_NAME, PSEUDO_PAIRS_NAME),
          outputs=(CONTEXTS_NAME, CONTEXT_IDS_NAME, CONTEXTS_TEXT_NAME),
          flag="emit_text", flag_help="also write rendered context text"),
    Stage("slide", "split and batch contexts into window shards and manifests",
          reads=(CONTEXTS_NAME, CONTEXT_IDS_NAME), outputs=(SHARDS_NAME,)),
    Stage("export", "verify window shards against their manifests", reads=(SHARDS_NAME,)),
    Stage("stats", "write per-language token statistics", reads=(CONTEXTS_NAME,),
          outputs=(STATS_NAME,)),
)
_STAGE_NAMED = {stage.name: stage for stage in STAGES}
EMBED_BATCH_SIZE = 256  # web documents per provider call when retrieve builds its index
SCORE_BLOCK_BYTES = 1 << 20  # retrieve scores articles in groups whose score block fits this


# ---------------------------------------------------------------------------
# JSONL round-trips for intermediate artifacts


def context_to_dict(ctx: PackedContext, per_language: dict[str, int]) -> dict:
    """The index line of one packed context: a ContextEntry's fields. A dict
    literal, since dataclasses.asdict would cost far more on every context."""
    return {
        "origin": ctx.origin,
        "token_len": ctx.token_len,
        "per_language_tokens": per_language,
    }


def read_contexts_jsonl(path: str | Path) -> list[ContextEntry]:
    """Read the context index, refusing any line that is not exactly a
    ContextEntry's fields: a cut-off last line left by a killed pack, a key
    missing or extra (as in an index written by an older pack), a line that
    is not a JSON object, or a value of the wrong type (a bool is no int, and
    token_len is at least 1)."""
    entries = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                entry = ContextEntry(**json.loads(line))
                counts = entry.per_language_tokens  # JSON keys are str; its values are checked
                if not (type(entry.origin) is str and type(entry.token_len) is int
                        and entry.token_len >= 1 and type(counts) is dict
                        and all(type(v) is int for v in counts.values())):
                    raise TypeError
            except (ValueError, TypeError):
                raise ValueError(f"{path}:{lineno}: not a context index line; "
                                 "rerun pack") from None
            entries.append(entry)
    return entries


def _dump_tsv(records: Iterable, path: Path) -> Iterator:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            values = [str(getattr(rec, name)) for name in rec.__dataclass_fields__]
            f.write("\t".join(values) + "\n")
            yield rec


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


def _in_use(cfg: PipelineConfig, name: str) -> bool:
    """Whether a run under `cfg` uses `name`, a config path or a stage output:
    retrieval's files only when the config retrieves, the vocabulary only for
    the external tokenizer kind."""
    if name in ("paths.web_corpus", PSEUDO_PAIRS_NAME):
        return cfg.retrieves
    return name != "tokenizer.vocab_source" or cfg.tokenizer.kind == "external"


def stages_for(cfg: PipelineConfig, subcommand: str) -> list[Stage]:
    """The stages `subcommand` runs under `cfg`: those whose outputs it uses,
    so `all` leaves retrieve out unless the config retrieves, and `retrieve`
    then raises ConfigError. Raises InputError, one line per path, when a
    config path they read does not exist; does not touch the network."""
    stages = STAGES if subcommand == ALL else (_STAGE_NAMED[subcommand],)
    runs = [s for s in stages if all(_in_use(cfg, output) for output in s.outputs)]
    if not runs:
        raise ConfigError([f"retrieval, paths.web_corpus: {subcommand} runs only when the "
                           "config has both a retrieval section and paths.web_corpus"])
    missing = []
    for field_path in dict.fromkeys(f for stage in runs for f in stage.paths):
        section, name = field_path.split(".")
        value = getattr(getattr(cfg, section), name)
        if _in_use(cfg, field_path) and not Path(value).exists():
            missing.append(f"{field_path}: path does not exist: {value}")
    if missing:
        raise InputError("\n".join(missing))
    return runs


def require(cfg: PipelineConfig, names: Iterable[str]) -> None:
    """Raise FileNotFoundError for the first of these stage outputs that a
    run under `cfg` reads and paths.output_dir lacks, naming its writer."""
    for name in names:
        path = cfg.output_dir / name
        if _in_use(cfg, name) and not path.exists():
            writer = next(stage.name for stage in STAGES if name in stage.outputs)
            raise FileNotFoundError(f"{path}: not found; run {writer} first")


@contextmanager
def _stage(report: RunReport, cfg: PipelineConfig, name: str) -> Iterator[dict]:
    """Run one stage body as the owner of its outputs, timed and reported.

    The stage's outputs are removed on entry, whichever run wrote them, and
    again if the body raises; then the earlier stages' outputs it reads must
    exist (`require`). The body fills the yielded dict with its counts; on
    success they go into the stage_complete event with its elapsed time.
    """
    start = time.perf_counter()
    stage = _STAGE_NAMED[name]
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for output in stage.outputs:
        _remove(out / output)
    require(cfg, stage.reads)
    counts: dict = {}
    try:
        yield counts
    except BaseException:
        for output in stage.outputs:
            _remove(out / output)
        raise
    report.event("stage_complete", stage=name,
                 elapsed_s=round(time.perf_counter() - start, 3), **counts)


def call_stage(cfg: PipelineConfig, report: RunReport, stage: Stage, **flags: bool) -> None:
    """Run stage_<name>, looked up at call time (the benchmark's tracer wraps
    it there), with its flag if `flags` holds it."""
    run_stage = globals()[f"stage_{stage.name}"]
    run_stage(cfg, report, **({stage.flag: flags[stage.flag]} if stage.flag in flags else {}))


# ---------------------------------------------------------------------------
# Stages


def stage_align(cfg: PipelineConfig, report: RunReport, dump_tsv: bool = False) -> None:
    with _stage(report, cfg, "align") as counts:
        out = cfg.output_dir
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
            streams = {name: _dump_tsv(stream, out / DEBUG_NAME / f"{name}.tsv")
                       for name, stream in streams.items()}
        align_tally = AlignTally()
        pairs = build_pair_map(
            streams["langlinks_l_to_en"],
            streams["pages_en"],
            streams["langlinks_en_to_l"],
            streams["pages_l"],
            tally=align_tally,
        )
        save_pair_map(pairs, out / PAIRS_NAME)
        counts.update(pair_count=len(pairs), alignment=asdict(align_tally),
                      parse_tallies={name: asdict(t) for name, t in tallies.items()})


def make_embedding_provider(cfg: PipelineConfig):
    from .retrieval import CachedEmbeddingProvider, MockEmbeddingProvider, WireEmbeddingProvider

    settings = cfg.retrieval
    if settings.provider == "mock":
        return MockEmbeddingProvider(dim=settings.dim, seed=settings.seed)
    if settings.provider == "file":
        return CachedEmbeddingProvider.from_file(settings.cache_path)
    return WireEmbeddingProvider(
        endpoint=settings.endpoint,
        auth_token=settings.auth_token,
        timeout_s=settings.timeout_s,
        max_retries=settings.max_retries,
    )


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


def stage_retrieve(cfg: PipelineConfig, report: RunReport) -> None:
    # The one stage that loads numpy, on entry.
    from .retrieval import VectorIndex

    with _stage(report, cfg, "retrieve") as counts:
        provider = make_embedding_provider(cfg)
        # Read both dumps before any embedding, so an unreadable one fails first.
        title_map = build_l_to_en_title_map(cfg)

        # Web texts are held one batch at a time; a blank one is kept only as an id.
        blank_docs: set[str] = set()

        def embedded_batches() -> Iterator[tuple]:
            corpus = read_candidate_corpus(cfg.paths.web_corpus)
            while batch := list(islice(corpus, EMBED_BATCH_SIZE)):
                blank_docs.update(doc_id for doc_id, text in batch if not text.strip())
                doc_ids, texts = zip(*batch)
                yield doc_ids, provider.embed_batch(texts)

        index = VectorIndex.build(embedded_batches())
        # Two float64 scores per corpus doc per article in the group's score block.
        group_size = max(1, SCORE_BLOCK_BYTES // (16 * max(1, len(index))))

        tally = RetrievalTally()
        pseudo_count = 0
        # Pack's ArticleStore indexes the records this scan yields.
        article_tally = ArticleTally()
        articles = scan_articles(cfg.paths.articles_l, cfg.language_l, article_tally)
        pseudo_path = cfg.output_dir / PSEUDO_PAIRS_NAME
        with open(pseudo_path, "w", encoding="utf-8") as f:
            articles = (article for article in articles if article.text.strip())
            while group := list(islice(articles, group_size)):
                keyword_sets = [extract_keywords(a, title_map, tally) for a in group]
                found = two_step_retrieve(keyword_sets, index, provider, cfg.retrieval, tally)
                for article, results in zip(group, found):
                    for res in results:
                        if res.doc_id in blank_docs:
                            tally.missing_corpus_texts += 1
                            continue
                        f.write(json.dumps({"doc_id": res.doc_id, "id_l": article.page_id},
                                           ensure_ascii=False, sort_keys=True))
                        f.write("\n")
                        pseudo_count += 1
        counts.update(corpus_docs=len(index), pseudo_pairs=pseudo_count,
                      retrieval=asdict(tally),
                      duplicate_articles=article_tally.duplicate_articles,
                      malformed_articles=article_tally.malformed_articles)


def _join_pseudo_pairs(cfg: PipelineConfig, path: Path, store_l: ArticleStore,
                       tally: PackTally) -> Iterator[ArticlePair]:
    """Join each pseudo pair reference to its two texts, in file order.

    The target-language side comes from `store_l`, the web side from one scan
    of paths.web_corpus that keeps only the referenced documents. A line that
    is not a reference, or whose doc_id or id_l has no text, is refused.
    Every reference counts under the tally's pairs_in.
    """
    refs: list[tuple[str, str, int]] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                ref = json.loads(line)
                refs.append((where, ref["doc_id"], ref["id_l"]))
            except (ValueError, KeyError, TypeError):
                raise ValueError(f"{where}: not a pseudo pair reference with doc_id and "
                                 "id_l; rerun retrieve") from None
    tally.pairs_in += len(refs)
    if not refs:
        return
    wanted = {doc_id for _, doc_id, _ in refs}
    texts = {doc_id: text for doc_id, text in read_candidate_corpus(cfg.paths.web_corpus)
             if doc_id in wanted}
    article = None
    for where, doc_id, id_l in refs:
        text = texts.get(doc_id, "")
        if not text.strip():
            raise ValueError(f"{where}: doc_id {doc_id!r} has no text in "
                             f"{cfg.paths.web_corpus}; rerun retrieve")
        if article is None or article.page_id != id_l:  # an article's refs are adjacent
            article = store_l.get(id_l)
        if article is None or not article.text.strip():
            raise ValueError(f"{where}: id_l {id_l} has no text in "
                             f"{cfg.paths.articles_l}; rerun retrieve")
        yield pseudo_pair(article, doc_id, text)


def _iter_source_pairs(cfg: PipelineConfig, article_tally: ArticleTally,
                       tally: PackTally) -> Iterator[ArticlePair]:
    out = cfg.output_dir
    pair_ids = load_pair_map(out / PAIRS_NAME)
    tally.pairs_in += len(pair_ids)
    with (ArticleStore(cfg.paths.articles_en, "en", article_tally) as store_en,
          ArticleStore(cfg.paths.articles_l, cfg.language_l, article_tally) as store_l):
        yield from join_articles(pair_ids, store_en, store_l, article_tally)
        if _in_use(cfg, PSEUDO_PAIRS_NAME):
            yield from _join_pseudo_pairs(cfg, out / PSEUDO_PAIRS_NAME, store_l, tally)


def stage_pack(cfg: PipelineConfig, report: RunReport, emit_text: bool = False) -> None:
    with _stage(report, cfg, "pack") as counts:
        out = cfg.output_dir
        tokenizer = make_tokenizer(cfg.tokenizer)
        article_tally = ArticleTally()
        tally = PackTally()
        context_count = 0
        with (open(out / CONTEXTS_NAME, "w", encoding="utf-8") as f,
              open(out / CONTEXT_IDS_NAME, "wb") as fb,
              (open(out / CONTEXTS_TEXT_NAME, "w", encoding="utf-8")
               if emit_text else nullcontext()) as text_file):
            for pair in _iter_source_pairs(cfg, article_tally, tally):
                direction = direction_for(pair.pair, cfg.pack)
                for ctx in pack_pair(pair, tokenizer, cfg.pack, direction, tally):
                    # The one ids mapping of this context; whitespace ids
                    # are assigned here, in corpus order.
                    ids, per_language = ctx.encode(tokenizer)
                    if len(ids) != ctx.token_len or ctx.token_len > cfg.pack.n_budget:
                        raise ValueError(
                            f"pair [{ctx.pair.id_l}, {ctx.pair.id_en}] seq_index "
                            f"{ctx.seq_index}: {len(ids)} tokens, planned "
                            f"{ctx.token_len}, budget is {cfg.pack.n_budget}")
                    fb.write(encode_window_record(ids))
                    f.write(json.dumps(context_to_dict(ctx, per_language),
                                       ensure_ascii=False, sort_keys=True))
                    f.write("\n")
                    context_count += 1
                    if text_file is not None:
                        text_file.write(json.dumps({
                            "pair": [ctx.pair.id_l, ctx.pair.id_en],
                            "seq_index": ctx.seq_index,
                            "direction": ctx.direction,
                            "token_len": ctx.token_len,
                            "text": ctx.rendered_text(tokenizer.split_token_text),
                        }, ensure_ascii=False, sort_keys=True))
                        text_file.write("\n")
        out_counts = (tally.pairs_packed, tally.degenerate_pairs,
                      article_tally.pairs_missing_text)
        if tally.pairs_in != sum(out_counts):
            raise ValueError("pack tallies do not add up: {} pairs read, {} packed, {} "
                             "degenerate, {} missing text".format(tally.pairs_in, *out_counts))
        counts.update(context_count=context_count, packing=asdict(tally),
                      join=asdict(article_tally))


def _context_ids(
    path: Path, entries: list[ContextEntry], splits: list[str], held: list[array],
    n: int, split_token_id: int,
) -> Iterator[array]:
    """Stream the train contexts' ids from contexts.bin in corpus order.

    Validation contexts are appended to `held` instead. Every record must
    match its index line and pass check_context: a missing, extra, resized
    or malformed record raises.
    """
    count = 0
    for i, ids in enumerate(iter_shard_records(path)):
        count = i + 1
        if i >= len(entries):
            continue  # counted, then reported below
        if len(ids) != entries[i].token_len:
            raise ValueError(f"{path}: record {i} holds {len(ids)} tokens, "
                             f"the index's token_len is {entries[i].token_len}")
        check_context(ids, n, split_token_id, i)
        if splits[i] == "validation":
            held.append(ids)
        else:
            yield ids
    if count != len(entries):
        raise ValueError(f"{path}: {count} records, the context index has "
                         f"{len(entries)} lines")


def plan_windows(lengths: Iterable[int], policy: SlidePolicy) -> Iterator[tuple[int, int]]:
    """The (start, end) token ranges `policy` plans over contexts of these
    lengths: slide's windows, so a caller can count them without cutting any."""
    if policy.kind == "standard":
        return slide_standard(lengths, policy.n_budget, policy.keep_final_partial)
    if policy.kind == "lossy":
        return slide_optimized_lossy(lengths, policy.n_budget)
    return slide_optimized(lengths, policy.n_budget)


def stage_slide(cfg: PipelineConfig, report: RunReport) -> None:
    with _stage(report, cfg, "slide") as counts:
        out = cfg.output_dir
        entries = read_contexts_jsonl(out / CONTEXTS_NAME)
        splits = split_names(len(entries), cfg.split)
        n = cfg.slide.n_budget
        held: list[array] = []
        train_ids = _context_ids(out / CONTEXT_IDS_NAME, entries, splits, held,
                                 n, cfg.tokenizer.split_token_id)
        digest = config_digest(cfg.effective_dict())

        # Train first: cutting it runs the record stream to its end, which
        # fills `held` before validation is cut.
        for split_name, ids_stream in (("train", train_ids), ("validation", held)):
            split = [e for e, s in zip(entries, splits) if s == split_name]
            ranges = plan_windows((e.token_len for e in split), cfg.slide)
            manifest = write_shards(
                cut_windows(ids_stream, ranges),
                out / SHARDS_NAME / split_name,
                config_digest=digest,
                tokenizer_kind=cfg.tokenizer.kind,
                n_budget=n,
                per_language_tokens=sum_tokens(split),
                seed=cfg.split.seed,
                split=split_name,
                shard_max_bytes=cfg.shard_max_bytes,
            )
            counts[split_name] = manifest.window_count
        # Both splits are written and every record checked: the shards now
        # hold each id, so slide consumes pack's copy.
        (out / CONTEXT_IDS_NAME).unlink()


def stage_export(cfg: PipelineConfig, report: RunReport) -> None:
    """Verify the shards slide wrote: read every record of each split back
    and check its window and token counts against the split's manifest."""
    with _stage(report, cfg, "export") as counts:
        for name in SPLITS:
            counts[name] = sum(1 for _ in read_shards(cfg.output_dir / SHARDS_NAME / name))


def stage_stats(cfg: PipelineConfig, report: RunReport) -> None:
    with _stage(report, cfg, "stats") as counts:
        out = cfg.output_dir
        stats = compute_stats(read_contexts_jsonl(out / CONTEXTS_NAME))
        (out / STATS_NAME).write_text(
            json.dumps(asdict(stats), indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        counts["sources"] = stats.sources


def run_all(cfg: PipelineConfig, report: RunReport, **flags: bool) -> None:
    start = time.perf_counter()
    # A failed stage removes only its own outputs; leave no other stage's stale.
    for output in chain.from_iterable(stage.outputs for stage in STAGES):
        _remove(cfg.output_dir / output)
    for stage in stages_for(cfg, ALL):
        call_stage(cfg, report, stage, **flags)
    elapsed = time.perf_counter() - start
    shards_root = cfg.output_dir / SHARDS_NAME
    token_total = sum(read_manifest(shards_root / name).token_total for name in SPLITS)
    with open(cfg.output_dir / PAIRS_NAME, encoding="utf-8") as f:
        pair_count = sum(1 for line in f if line.strip())
    report.event(
        "run_complete",
        elapsed_s=round(elapsed, 3),
        pair_count=pair_count,
        token_total=token_total,
        pairs_per_s=round(pair_count / elapsed, 1) if elapsed > 0 else None,
        tokens_per_s=round(token_total / elapsed, 1) if elapsed > 0 else None,
    )
