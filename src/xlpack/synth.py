"""Synthetic corpus generation: SQL dumps, article files, and web corpora.

The SQL writer is the exact inverse of the dump scanner (same escape table,
same statement grammar), which makes generated dumps usable as round-trip
fixtures. Titles follow the MediaWiki convention of underscores standing in
for spaces, so generated titles must not themselves contain underscores.
"""

from __future__ import annotations

import gzip
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

from .dump_ingest import _SQL_ESCAPES

# The inverse of the scanner's one-character escapes. \% and \_ keep their
# backslash when scanned, so the writer needs no entry for them: it escapes the
# backslash itself.
_SQL_ESCAPE_OUT = {char: "\\" + code for code, char in _SQL_ESCAPES.items() if len(char) == 1}


def sql_quote(value: str) -> str:
    return "'" + "".join(_SQL_ESCAPE_OUT.get(ch, ch) for ch in value) + "'"


def _sql_value(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    return sql_quote(value)


def write_sql_dump(
    path: str | Path,
    table: str,
    rows: Sequence[Sequence],
    tuples_per_statement: int = 1000,
    compress: bool = False,
) -> Path:
    """Write rows as a MediaWiki-style SQL dump with preamble and extended inserts."""
    path = Path(path)
    opener = gzip.open if compress else open
    f: IO[str]
    with opener(path, "wt", encoding="utf-8") as f:
        f.write(f"-- MySQL dump (synthetic)\n-- Table structure for table `{table}`\n")
        f.write(f"DROP TABLE IF EXISTS `{table}`;\n")
        f.write(f"CREATE TABLE `{table}` (\n  `col` int(10) NOT NULL\n);\n")
        f.write(f"-- Dumping data for table `{table}`\n")
        for start in range(0, len(rows), tuples_per_statement):
            batch = rows[start : start + tuples_per_statement]
            tuples = ",".join("(" + ",".join(_sql_value(v) for v in row) + ")" for row in batch)
            f.write(f"INSERT INTO `{table}` VALUES {tuples};\n")
    return path


def title_to_db(title: str) -> str:
    return title.replace(" ", "_")


def write_langlinks_dump(
    path: str | Path,
    links: Sequence[tuple[int, str, str]],
    compress: bool = False,
) -> Path:
    """links: (from_page_id, target_lang, target_title with spaces)."""
    rows = [(pid, lang, title_to_db(title)) for pid, lang, title in links]
    return write_sql_dump(path, "langlinks", rows, compress=compress)


def write_pages_dump(
    path: str | Path,
    pages: Sequence[tuple[int, int, str, bool]],
    compress: bool = False,
) -> Path:
    """pages: (page_id, namespace, title with spaces, is_redirect).

    Rows carry the trailing columns of the modern `page` schema so parsers
    must honor column positions rather than arity.
    """
    rows = [
        (pid, ns, title_to_db(title), int(redirect), 0, 0.5, "20240101000000", None, 1, 100,
         "wikitext", None)
        for pid, ns, title, redirect in pages
    ]
    return write_sql_dump(path, "page", rows, compress=compress)


def write_articles_jsonl(
    path: str | Path, articles: Sequence[tuple[int, str, str]]
) -> Path:
    """articles: (page_id, title, text); one JSON record per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for page_id, title, text in articles:
            f.write(json.dumps({"id": str(page_id), "title": title, "text": text},
                               ensure_ascii=False))
            f.write("\n")
    return path


def write_web_corpus_jsonl(path: str | Path, docs: Sequence[tuple[str, str]]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for doc_id, text in docs:
            f.write(json.dumps({"id": doc_id, "text": text}, ensure_ascii=False))
            f.write("\n")
    return path


@dataclass
class SynthCorpus:
    """A generated bilingual corpus plus the ground truth it was built from."""

    root: Path
    lang: str
    langlinks_l_to_en: Path
    langlinks_en_to_l: Path
    pages_en: Path
    pages_l: Path
    articles_en: Path
    articles_l: Path
    pair_ids: list[tuple[int, int]] = field(default_factory=list)  # (id_l, id_en)


def _paragraph(rng: random.Random, vocab: list[str], words: int) -> str:
    return " ".join(rng.choice(vocab) for _ in range(words))


def build_corpus(
    root: str | Path,
    lang: str = "xx",
    n_pairs: int = 100,
    paragraphs_per_side: int = 4,
    words_per_paragraph: tuple[int, int] = (4, 12),
    seed: int = 0,
    vocab_size: int = 2000,
    reverse_fraction: float = 0.3,
    compress: bool = False,
) -> SynthCorpus:
    """Generate an aligned bilingual corpus under `root`.

    A reverse_fraction of the pairs is only discoverable through the reverse
    (English -> L) links, the rest through forward links, so alignment must
    union both directions to find every pair.
    """
    rng = random.Random(seed)
    root = Path(root)
    dumps = root / "dumps"
    dumps.mkdir(parents=True, exist_ok=True)
    vocab_en = [f"en{k}" for k in range(vocab_size)]
    vocab_l = [f"{lang}{k}" for k in range(vocab_size)]

    forward_links: list[tuple[int, str, str]] = []
    reverse_links: list[tuple[int, str, str]] = []
    pages_en: list[tuple[int, int, str, bool]] = []
    pages_l: list[tuple[int, int, str, bool]] = []
    articles_en: list[tuple[int, str, str]] = []
    articles_l: list[tuple[int, str, str]] = []
    pair_ids: list[tuple[int, int]] = []

    lo, hi = words_per_paragraph
    for k in range(n_pairs):
        id_l = 10_000 + k
        id_en = 50_000 + k
        title_en = f"Topic {k}"
        title_l = f"Thema {k}"
        pair_ids.append((id_l, id_en))
        pages_en.append((id_en, 0, title_en, False))
        pages_l.append((id_l, 0, title_l, False))
        if rng.random() < reverse_fraction:
            reverse_links.append((id_en, lang, title_l))
        else:
            forward_links.append((id_l, "en", title_en))
        n_para = max(1, paragraphs_per_side + rng.randint(-1, 1))
        text_en = "\n\n".join(
            _paragraph(rng, vocab_en, rng.randint(lo, hi)) for _ in range(n_para)
        )
        text_l = "\n\n".join(
            _paragraph(rng, vocab_l, rng.randint(lo, hi)) for _ in range(n_para)
        )
        articles_en.append((id_en, title_en, text_en))
        articles_l.append((id_l, title_l, text_l))

    suffix = ".sql.gz" if compress else ".sql"
    corpus = SynthCorpus(
        root=root,
        lang=lang,
        langlinks_l_to_en=write_langlinks_dump(
            dumps / f"{lang}-langlinks{suffix}", forward_links, compress=compress
        ),
        langlinks_en_to_l=write_langlinks_dump(
            dumps / f"en-langlinks{suffix}", reverse_links, compress=compress
        ),
        pages_en=write_pages_dump(dumps / f"en-page{suffix}", pages_en, compress=compress),
        pages_l=write_pages_dump(dumps / f"{lang}-page{suffix}", pages_l, compress=compress),
        articles_en=write_articles_jsonl(root / "articles_en" / "wiki_00.jsonl", articles_en),
        articles_l=write_articles_jsonl(root / "articles_l" / "wiki_00.jsonl", articles_l),
        pair_ids=pair_ids,
    )
    return corpus
