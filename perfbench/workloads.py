"""Input generation for the benchmark workloads.

Each workload turns (seed, size) into files on disk: SQL dumps, extracted
articles and, for retrieve-web, a web corpus plus its embedding cache. It also
returns the pipeline config and the ground truth the output checks compare
against. The program under test only ever sees the files.

Generation is cached per (workload, size, seed) and is never inside a timed
metric. The writers come from `xlpack.synth`; noise rows, wiki links and the
embedding cache are built here.
"""

from __future__ import annotations

import gzip
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from xlpack.retrieval import write_embedding_cache
from xlpack.synth import (
    build_corpus,
    write_articles_jsonl,
    write_langlinks_dump,
    write_pages_dump,
    write_web_corpus_jsonl,
)

LANG = "xx"
THRESHOLD = 0.75
MAX_RESULTS = 3
EMBED_DIM = 128
# Planted hits per retrieve-web article and the exact share of articles that
# get each count; 5 hits exercises the cap of MAX_RESULTS.
HIT_PLAN = ((0, 0.30), (1, 0.25), (2, 0.20), (3, 0.15), (5, 0.10))

# Input caches kept per workload; older seeds are evicted first.
CACHE_KEEP = 3

SIZES = {
    "wiki-desk": {
        "full": dict(pairs=10_000, paragraphs=20),
        "smoke": dict(pairs=150, paragraphs=6),
    },
    "dump-heavy": {
        "full": dict(pairs=15_000, noise_pages=80_000),
        "smoke": dict(pairs=300, noise_pages=2_000),
    },
    "retrieve-web": {
        "full": dict(pairs=2_000, paragraphs=6, web_docs=5_000),
        "smoke": dict(pairs=60, paragraphs=3, web_docs=400),
    },
}


@dataclass
class Inputs:
    """A generated input set: a config file plus what correct output looks like."""

    config_path: Path
    n_budget: int
    pair_ids: list[tuple[int, int]]  # ground-truth (id_l, id_en), ascending
    # retrieve-web only: id_l -> pseudo pairs expected after the cap
    planned_pseudo: dict[int, int] | None
    has_retrieval: bool


def _base_config(root: Path, paths: dict, n_budget: int, direction: str) -> dict:
    return {
        "language_l": LANG,
        "paths": {**{k: str(v) for k, v in paths.items()}, "output_dir": str(root / "out")},
        "tokenizer": {"kind": "whitespace"},
        "pack": {"n_budget": n_budget, "direction_policy": direction},
        "slide": {"kind": "optimized", "n_budget": n_budget},
        "split": {"validation_fraction": 0.001, "seed": 32},
    }


def _words(rng: random.Random, prefix: str, lo: int, hi: int, vocab: int = 2000) -> str:
    return " ".join(f"{prefix}{rng.randrange(vocab)}" for _ in range(rng.randint(lo, hi)))


def _text(rng: random.Random, prefix: str, paragraphs: int, lo: int = 4, hi: int = 12) -> str:
    return "\n\n".join(_words(rng, prefix, lo, hi) for _ in range(paragraphs))


# ---------------------------------------------------------------------------
# wiki-desk: the acceptance-criterion-7 corpus


def gen_wiki_desk(root: Path, seed: int, pairs: int, paragraphs: int) -> dict:
    corpus = build_corpus(
        root / "data",
        lang=LANG,
        n_pairs=pairs,
        paragraphs_per_side=paragraphs,
        words_per_paragraph=(4, 12),
        seed=seed,
    )
    paths = {
        "langlinks_l_to_en": corpus.langlinks_l_to_en,
        "langlinks_en_to_l": corpus.langlinks_en_to_l,
        "pages_en": corpus.pages_en,
        "pages_l": corpus.pages_l,
        "articles_en": corpus.articles_en.parent,
        "articles_l": corpus.articles_l.parent,
    }
    return {
        "config": _base_config(root, paths, 4096, "en_first"),
        "pair_ids": sorted(corpus.pair_ids),
        "planned_pseudo": None,
    }


# ---------------------------------------------------------------------------
# Aligned pages shared by dump-heavy and retrieve-web


@dataclass
class _Wiki:
    pages_en: list
    pages_l: list
    links_l_to_en: list  # forward: (id_l, "en", title_en)
    links_en_to_l: list  # reverse: (id_en, LANG, title_l)
    id_l: list[int]
    id_en: list[int]
    forward: list[bool]  # pair k has a forward link, so title_l maps to English


def _aligned_pages(rng: random.Random, pairs: int, id_space: int) -> _Wiki:
    """Real article pages with interlanguage links; ids are scattered over
    id_space so that noise rows interleave with them."""
    ids = rng.sample(range(1, id_space), 2 * pairs)
    id_l, id_en = ids[:pairs], ids[pairs:]
    wiki = _Wiki([], [], [], [], id_l, id_en, [])
    for k in range(pairs):
        title_en, title_l = f"Topic {k}", f"Thema {k}"
        wiki.pages_en.append((id_en[k], 0, title_en, False))
        wiki.pages_l.append((id_l[k], 0, title_l, False))
        u = rng.random()
        # 60% forward only, 25% reverse only, 15% both (deduplicated by align).
        forward = u < 0.75
        wiki.forward.append(forward)
        if forward:
            wiki.links_l_to_en.append((id_l[k], "en", title_en))
        if u >= 0.60:
            wiki.links_en_to_l.append((id_en[k], LANG, title_l))
    return wiki


# ---------------------------------------------------------------------------
# dump-heavy: most dump rows are rejected by some alignment filter

_OTHER_LANGS = ("de", "fr", "ja", "pt", "ru")
_NAMESPACES = (1, 2, 4, 6, 10, 14)


def _noise_pages(rng: random.Random, count: int, pairs: int, prefix: str,
                 free_ids: list[int]) -> tuple[list, list[str], list[str]]:
    """Pages that must never produce a pair: other namespaces (some reusing
    real article titles), redirects and unlinked articles."""
    pages, redirect_titles, other_ns_titles = [], [], []
    for n in range(count):
        pid = free_ids[n]
        u = rng.random()
        if u < 0.4:
            reuse = rng.random() < 0.5
            title = f"{prefix} {rng.randrange(pairs)}" if reuse else f"Archive {prefix} {n}"
            pages.append((pid, rng.choice(_NAMESPACES), title, False))
            if not reuse:
                other_ns_titles.append(title)
        elif u < 0.6:
            title = f"Redirect {prefix} {n}"
            pages.append((pid, 0, title, True))
            redirect_titles.append(title)
        else:
            pages.append((pid, 0, f"Orphan {prefix} {n}", False))
    return pages, redirect_titles, other_ns_titles


def _noise_links(rng: random.Random, from_ids: list[int], target_lang: str,
                 dead_titles: list[str], count: int) -> list:
    """Links the filters must drop: other languages, blank or unresolvable
    titles, and titles of redirects or non-article pages."""
    links = []
    for n in range(count):
        pid = rng.choice(from_ids)
        u = rng.random()
        if u < 0.7:
            links.append((pid, rng.choice(_OTHER_LANGS), f"Fremd {n}"))
        elif u < 0.72:
            links.append((pid, target_lang, ""))
        elif u < 0.85:
            links.append((pid, target_lang, f"Missing {n}"))
        else:
            links.append((pid, target_lang, rng.choice(dead_titles)))
    return links


def gen_dump_heavy(root: Path, seed: int, pairs: int, noise_pages: int) -> dict:
    rng = random.Random(seed)
    id_space = 4 * (pairs + noise_pages)
    wiki = _aligned_pages(rng, pairs, id_space)
    used = set(wiki.id_l) | set(wiki.id_en)
    free = [i for i in rng.sample(range(1, id_space), 2 * noise_pages + len(used))
            if i not in used]
    noise_en, redirects_en, other_en = _noise_pages(
        rng, noise_pages, pairs, "Topic", free[:noise_pages])
    noise_l, redirects_l, other_l = _noise_pages(
        rng, noise_pages, pairs, "Thema", free[noise_pages:2 * noise_pages])
    noise_ids_l = [p[0] for p in noise_l]
    noise_ids_en = [p[0] for p in noise_en]
    n_links = noise_pages // 2
    links_l_to_en = wiki.links_l_to_en + _noise_links(
        rng, wiki.id_l + noise_ids_l, "en", redirects_en + other_en, n_links)
    links_en_to_l = wiki.links_en_to_l + _noise_links(
        rng, wiki.id_en + noise_ids_en, LANG, redirects_l + other_l, n_links)
    rng.shuffle(links_l_to_en)
    rng.shuffle(links_en_to_l)
    pages_en = sorted(wiki.pages_en + noise_en)
    pages_l = sorted(wiki.pages_l + noise_l)

    data = root / "data"
    dumps = data / "dumps"
    dumps.mkdir(parents=True, exist_ok=True)
    paths = {
        "langlinks_l_to_en": write_langlinks_dump(
            dumps / f"{LANG}-langlinks.sql.gz", links_l_to_en, compress=True),
        "langlinks_en_to_l": write_langlinks_dump(
            dumps / "en-langlinks.sql.gz", links_en_to_l, compress=True),
        "pages_en": write_pages_dump(dumps / "en-page.sql.gz", pages_en, compress=True),
        "pages_l": _append_malformed_pages(
            write_pages_dump(dumps / f"{LANG}-page.sql.gz", pages_l, compress=True),
            max(1, noise_pages // 1000)),
    }
    articles_en, articles_l = [], []
    for k in range(pairs):
        paragraphs = 1 + (rng.random() < 0.1)
        articles_en.append((wiki.id_en[k], f"Topic {k}", _text(rng, "en", paragraphs, 3, 6)))
        articles_l.append((wiki.id_l[k], f"Thema {k}", _text(rng, LANG, paragraphs, 3, 6)))
    paths["articles_en"] = write_articles_jsonl(
        data / "articles_en" / "wiki_00.jsonl", articles_en).parent
    paths["articles_l"] = write_articles_jsonl(
        data / "articles_l" / "wiki_00.jsonl", articles_l).parent
    return {
        "config": _base_config(root, paths, 4096, "en_first"),
        "pair_ids": sorted(zip(wiki.id_l, wiki.id_en)),
        "planned_pseudo": None,
    }


def _append_malformed_pages(path: Path, count: int) -> Path:
    """Append one INSERT whose tuples have too few columns, as a second gzip
    member; the scanner must tally and skip them."""
    tuples = ",".join(f"({n},0)" for n in range(1, count + 1))
    with gzip.open(path, "at", encoding="utf-8") as f:
        f.write(f"INSERT INTO `page` VALUES {tuples};\n")
    return path


# ---------------------------------------------------------------------------
# retrieve-web: target articles with wiki links, a web corpus and planted hits


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _near(base: np.ndarray, cos: float, nrng: np.random.Generator) -> np.ndarray:
    """A unit vector at exactly `cos` to the unit vector `base`."""
    r = nrng.standard_normal(base.shape[0])
    r = _unit(r - (r @ base) * base)
    return cos * base + np.sqrt(1.0 - cos * cos) * r


def gen_retrieve_web(root: Path, seed: int, pairs: int, paragraphs: int,
                     web_docs: int) -> dict:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    wiki = _aligned_pages(rng, pairs, 4 * pairs)
    hit_counts = [h for h, share in HIT_PLAN for _ in range(round(share * pairs))]
    hit_counts = (hit_counts + [0] * pairs)[:pairs]
    rng.shuffle(hit_counts)

    # Each target article links 3-15 other articles, some more than once.
    # Keywords are the English titles of mapped targets, most frequent first,
    # ties by first occurrence, capped at 10.
    articles_en, articles_l, queries = [], [], []
    for k in range(pairs):
        targets = _sample_others(rng, pairs, k, rng.randint(3, min(15, pairs - 1)))
        rng.shuffle(targets)
        mentions = targets + rng.sample(targets, rng.randint(0, len(targets) // 3))
        rng.shuffle(mentions)
        counts: dict[int, int] = {}
        for j in mentions:
            counts[j] = counts.get(j, 0) + 1
        first = {j: mentions.index(j) for j in counts}
        mapped = [j for j in counts if wiki.forward[j]]
        ranked = sorted(mapped, key=lambda j: (-counts[j], first[j]))[:10]
        title_kw = f"Topic {k}" if wiki.forward[k] else f"Thema {k}"
        full = " ".join([title_kw] + [f"Topic {j}" for j in ranked])
        queries.append((title_kw, full))
        link_text = " ".join(
            f"[[Thema {j}]]" if rng.random() < 0.7 else f"[[Thema_{j}|{LANG}{j}]]"
            for j in mentions
        )
        text_l = _text(rng, LANG, paragraphs) + "\n\n" + link_text
        articles_en.append((wiki.id_en[k], f"Topic {k}", _text(rng, "en", paragraphs)))
        articles_l.append((wiki.id_l[k], f"Thema {k}", text_l))

    # Embeddings: each article gets a random direction. Planted docs sit at
    # cosine 0.86-0.97 to it (kept), near misses at 0.55-0.65 (dropped), and
    # the rest of the corpus is random, far below the threshold in 128 dims.
    table: dict[str, np.ndarray] = {}
    bases = [_unit(nrng.standard_normal(EMBED_DIM)) for _ in range(pairs)]
    q_title, q_full = [], []
    for k, (title_kw, full) in enumerate(queries):
        qt = bases[k]
        qf = qt if full == title_kw else _unit(qt + 0.2 * _unit(nrng.standard_normal(EMBED_DIM)))
        table[title_kw], table[full] = qt, qf
        q_title.append(qt)
        q_full.append(qf)
    doc_vectors: list[np.ndarray] = []
    planted_for: list[int] = []  # article index per planted doc, -1 for the rest
    for k, h in enumerate(hit_counts):
        for _ in range(h):
            doc_vectors.append(_near(bases[k], rng.uniform(0.86, 0.97), nrng))
            planted_for.append(k)
        if rng.random() < 0.5:
            doc_vectors.append(_near(bases[k], rng.uniform(0.55, 0.65), nrng))
            planted_for.append(-1)
    if len(doc_vectors) > web_docs:
        raise ValueError(f"{len(doc_vectors)} planted docs exceed the {web_docs}-doc corpus")
    while len(doc_vectors) < web_docs:
        doc_vectors.append(_unit(nrng.standard_normal(EMBED_DIM)))
        planted_for.append(-1)
    slots = list(range(web_docs))
    rng.shuffle(slots)
    docs = []
    order = sorted(range(web_docs), key=lambda i: slots[i])
    for i in order:
        doc_id = f"web{slots[i]:05d}"
        text = f"Web page {slots[i]}\n" + _text(rng, "en", rng.randint(2, 4))
        docs.append((doc_id, text))
        table[text] = doc_vectors[i]

    planned = _check_plan(hit_counts, q_title, q_full, doc_vectors, planted_for)

    data = root / "data"
    dumps = data / "dumps"
    dumps.mkdir(parents=True, exist_ok=True)
    cache_path = data / "embeddings.bin"
    write_embedding_cache(cache_path, table)
    paths = {
        "langlinks_l_to_en": write_langlinks_dump(
            dumps / f"{LANG}-langlinks.sql", wiki.links_l_to_en),
        "langlinks_en_to_l": write_langlinks_dump(
            dumps / "en-langlinks.sql", wiki.links_en_to_l),
        "pages_en": write_pages_dump(dumps / "en-page.sql", wiki.pages_en),
        "pages_l": write_pages_dump(dumps / f"{LANG}-page.sql", wiki.pages_l),
        "articles_en": write_articles_jsonl(
            data / "articles_en" / "wiki_00.jsonl", articles_en).parent,
        "articles_l": write_articles_jsonl(
            data / "articles_l" / "wiki_00.jsonl", articles_l).parent,
        "web_corpus": write_web_corpus_jsonl(data / "web.jsonl", docs),
    }
    config = _base_config(root, paths, 1024, "mix")
    config["pack"]["seed"] = seed
    config["retrieval"] = {
        "provider": "file",
        "cache_path": str(cache_path),
        "threshold": THRESHOLD,
        "max_results": MAX_RESULTS,
    }
    return {
        "config": config,
        "pair_ids": sorted(zip(wiki.id_l, wiki.id_en)),
        "planned_pseudo": {wiki.id_l[k]: n for k, n in enumerate(planned) if n},
    }


def _sample_others(rng: random.Random, pairs: int, k: int, count: int) -> list[int]:
    picked: set[int] = set()
    while len(picked) < count:
        j = rng.randrange(pairs)
        if j != k:
            picked.add(j)
    return sorted(picked)


def _check_plan(hit_counts, q_title, q_full, doc_vectors, planted_for) -> list[int]:
    """Score every (article, doc) pair as float32-stored unit vectors and
    confirm that exactly the planted docs clear the threshold."""
    docs = np.stack([_unit(v.astype("<f4").astype(np.float64)) for v in doc_vectors])
    qt = np.stack([_unit(v.astype("<f4").astype(np.float64)) for v in q_title])
    qf = np.stack([_unit(v.astype("<f4").astype(np.float64)) for v in q_full])
    planted = np.asarray(planted_for)
    for k, h in enumerate(hit_counts):
        if k % 256 == 0:
            final = (qt[k:k + 256] @ docs.T + qf[k:k + 256] @ docs.T) / 2.0
        above = np.flatnonzero(final[k % 256] >= THRESHOLD)
        expected = np.flatnonzero(planted == k)
        if not np.array_equal(above, expected) or len(expected) != h:
            raise ValueError(f"article {k}: planted {h} hits, found {len(above)} above threshold")
    return [min(h, MAX_RESULTS) for h in hit_counts]


# ---------------------------------------------------------------------------

GENERATORS = {
    "wiki-desk": gen_wiki_desk,
    "dump-heavy": gen_dump_heavy,
    "retrieve-web": gen_retrieve_web,
}
DEFAULT_SEED = 7


def prepare(work: Path, name: str, seed: int, size: str = "full") -> Inputs:
    """Generate (or reuse) the inputs of one workload under `work`/inputs."""
    root = work / "inputs" / f"{name}-{size}-s{seed}"
    done = root / "truth.json"
    if not done.exists():
        if root.exists():
            shutil.rmtree(root)
        root.mkdir(parents=True)
        generated = GENERATORS[name](root, seed, **SIZES[name][size])
        (root / "config.json").write_text(json.dumps(generated["config"], indent=2) + "\n")
        truth = {
            "n_budget": generated["config"]["slide"]["n_budget"],
            "pair_ids": generated["pair_ids"],
            "planned_pseudo": generated["planned_pseudo"],
            "has_retrieval": "retrieval" in generated["config"],
        }
        done.write_text(json.dumps(truth) + "\n")
        _evict(work / "inputs", name, keep=root)
    done.touch()
    truth = json.loads(done.read_text())
    planned = truth["planned_pseudo"]
    return Inputs(
        config_path=root / "config.json",
        n_budget=truth["n_budget"],
        pair_ids=[tuple(p) for p in truth["pair_ids"]],
        planned_pseudo={int(k): v for k, v in planned.items()} if planned is not None else None,
        has_retrieval=truth["has_retrieval"],
    )


def _evict(inputs_dir: Path, name: str, keep: Path) -> None:
    cached = sorted(
        (p for p in inputs_dir.glob(f"{name}-*") if p != keep and (p / "truth.json").exists()),
        key=lambda p: (p / "truth.json").stat().st_mtime,
        reverse=True,
    )
    for stale in cached[CACHE_KEEP - 1:]:
        shutil.rmtree(stale)
