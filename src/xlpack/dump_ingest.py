"""Streaming parsers for MediaWiki SQL dumps and extracted-article files.

The SQL side handles the machine-generated `INSERT INTO ... VALUES (...),(...);`
statements found in `*-langlinks.sql(.gz)` and `*-page.sql(.gz)` dumps. A
hand-rolled tuple scanner is used instead of a SQL parser: these files have a
fixed grammar, and the scanner runs in constant memory over arbitrarily large
inputs. Malformed tuples are tallied and skipped; only a truncated file (ending
mid-statement) raises, and only after every complete tuple has been yielded.

The article side reads line-delimited JSON records (`id`, `title`, `text`)
as produced by common wikitext extraction tools.
"""

from __future__ import annotations

import gzip
import io
import json
import re
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

# Text is consumed in fixed-size chunks; memory use is independent of dump size.
_CHUNK_CHARS = 1 << 18

_INSERT_NEEDLE = "\nINSERT INTO "
_VALUES_NEEDLE = "VALUES"

# MySQL escape sequences as emitted by mysqldump. Unlisted characters lose the
# backslash; \% and \_ keep it (match-pattern escapes are preserved verbatim).
_SQL_ESCAPES = {
    "0": "\0",
    "'": "'",
    '"': '"',
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "t": "\t",
    "Z": "\x1a",
    "\\": "\\",
    "%": "\\%",
    "_": "\\_",
}

_UNQUOTED_END = re.compile(r"[,)]")
_STRING_SPECIAL = re.compile(r"['\\]")


class TruncatedDumpError(ValueError):
    """The input ended in the middle of an INSERT statement."""


@dataclass
class ParseTally:
    """Counters for one scan of one input; never causes the scan to abort."""

    tuples_scanned: int = 0
    records_yielded: int = 0
    malformed: int = 0
    resyncs: int = 0

    @property
    def errors(self) -> int:
        return self.malformed + self.resyncs

    def as_dict(self) -> dict[str, int]:
        return {
            "tuples_scanned": self.tuples_scanned,
            "records_yielded": self.records_yielded,
            "malformed": self.malformed,
            "resyncs": self.resyncs,
        }


@dataclass
class LangLink:
    """One interlanguage link row: source page id, target wiki, target title.

    Titles are stored with underscores replaced by spaces so they compare
    equal to `page` table titles normalized the same way.
    """

    from_page_id: int
    target_lang: str
    target_title: str


@dataclass
class PageRecord:
    page_id: int
    namespace: int
    title: str
    is_redirect: bool


@dataclass
class RawArticle:
    page_id: int
    title: str
    text: str
    lang: str


@dataclass
class PageColumns:
    """Column positions inside a `page` table tuple.

    Dump vintages reorder columns; the defaults match dumps that start with
    (page_id, page_namespace, page_title, page_is_redirect, ...). Older dumps
    with page_restrictions/page_counter need is_redirect=5.
    """

    page_id: int = 0
    namespace: int = 1
    title: int = 2
    is_redirect: int = 3


# Scanner modes.
_SEEK, _HEADER, _BETWEEN, _FIELD, _STRING, _STR_ESCAPE, _QUOTE_PENDING, _AFTER_STRING = range(8)


class _InsertTupleScanner:
    """Incremental scanner over INSERT statements, fed one text chunk at a time.

    Field values come back as str, with SQL string escapes resolved; an
    unquoted NULL comes back as None. State carried between chunks is bounded
    by the size of one field, never by the size of the input.
    """

    def __init__(self, tally: ParseTally):
        self._tally = tally
        self._mode = _SEEK
        # Synthetic leading newline so a statement at offset 0 anchors the needle.
        self._pending = "\n"
        self._fields: list[str | None] = []
        self._buf: list[str] = []

    def feed(self, chunk: str) -> list[tuple]:
        out: list[tuple] = []
        work = self._pending + chunk
        self._pending = ""
        pos = 0
        n = len(work)
        while pos < n:
            mode = self._mode
            if mode == _SEEK:
                idx = work.find(_INSERT_NEEDLE, pos)
                if idx < 0:
                    # Keep a tail big enough for a needle split across chunks.
                    self._pending = work[max(pos, n - len(_INSERT_NEEDLE) + 1):]
                    return out
                pos = idx + len(_INSERT_NEEDLE)
                self._mode = _HEADER
            elif mode == _HEADER:
                v = work.find(_VALUES_NEEDLE, pos)
                nl = work.find("\n", pos)
                if v >= 0 and (nl < 0 or v < nl):
                    pos = v + len(_VALUES_NEEDLE)
                    self._mode = _BETWEEN
                elif nl >= 0:
                    # Statement line without VALUES: not an insert we understand.
                    self._tally.resyncs += 1
                    self._mode = _SEEK
                    pos = nl  # leave the newline to re-anchor the seek needle
                else:
                    self._pending = work[max(pos, n - len(_VALUES_NEEDLE) + 1):]
                    return out
            elif mode == _BETWEEN:
                ch = work[pos]
                if ch == "(":
                    self._fields = []
                    self._buf = []
                    self._mode = _FIELD
                    pos += 1
                elif ch == ";":
                    self._mode = _SEEK
                    pos += 1
                elif ch in ", \t\r\n":
                    pos += 1
                else:
                    self._abandon()
                    nl = work.find("\n", pos)
                    if nl < 0:
                        return out
                    pos = nl
            elif mode == _FIELD:
                while pos < n and work[pos] in " \t":
                    pos += 1
                if pos >= n:
                    return out
                if work[pos] == "'":
                    self._mode = _STRING
                    pos += 1
                    continue
                m = _UNQUOTED_END.search(work, pos)
                if not m:
                    self._buf.append(work[pos:])
                    return out
                self._buf.append(work[pos:m.start()])
                self._end_field(quoted=False)
                pos = m.start() + 1
                if m.group() == ")":
                    out.append(self._end_tuple())
                # "," keeps _FIELD mode for the next value
            elif mode == _STRING:
                m = _STRING_SPECIAL.search(work, pos)
                if not m:
                    self._buf.append(work[pos:])
                    return out
                self._buf.append(work[pos:m.start()])
                pos = m.start() + 1
                if m.group() == "\\":
                    if pos < n:
                        self._buf.append(_SQL_ESCAPES.get(work[pos], work[pos]))
                        pos += 1
                    else:
                        self._mode = _STR_ESCAPE
                        return out
                else:
                    self._mode = _QUOTE_PENDING
            elif mode == _QUOTE_PENDING:
                # Just saw a quote inside a string: doubled quote means a
                # literal quote, anything else closes the string.
                if work[pos] == "'":
                    self._buf.append("'")
                    self._mode = _STRING
                    pos += 1
                else:
                    self._end_field(quoted=True)
                    self._mode = _AFTER_STRING
            elif mode == _AFTER_STRING:
                ch = work[pos]
                pos += 1
                if ch == ",":
                    self._mode = _FIELD
                elif ch == ")":
                    out.append(self._end_tuple())
                else:
                    self._abandon()
                    nl = work.find("\n", pos)
                    if nl < 0:
                        return out
                    pos = nl
            elif mode == _STR_ESCAPE:
                self._buf.append(_SQL_ESCAPES.get(work[pos], work[pos]))
                pos += 1
                self._mode = _STRING
        return out

    def finish(self) -> None:
        if self._mode not in (_SEEK,):
            raise TruncatedDumpError(
                "input ended inside an INSERT statement (mode %d)" % self._mode
            )

    def _abandon(self) -> None:
        self._tally.resyncs += 1
        self._fields = []
        self._buf = []
        self._mode = _SEEK

    def _end_field(self, quoted: bool) -> None:
        text = "".join(self._buf)
        self._buf = []
        if quoted:
            self._fields.append(text)
        else:
            stripped = text.strip()
            self._fields.append(None if stripped == "NULL" else stripped)

    def _end_tuple(self) -> tuple:
        self._tally.tuples_scanned += 1
        fields = tuple(self._fields)
        self._fields = []
        self._mode = _BETWEEN
        return fields


def _open_text(raw: IO[bytes]) -> IO[str]:
    """Wrap a binary stream as text, transparently gunzipping. Closing the
    text closes a plain stream but not the file under a gzip one."""
    if not raw.seekable():
        raise ValueError("dump source must be seekable")
    head = raw.read(2)
    raw.seek(-len(head), io.SEEK_CUR)
    if head == b"\x1f\x8b":
        return io.TextIOWrapper(gzip.GzipFile(fileobj=raw), encoding="utf-8", errors="replace")
    return io.TextIOWrapper(raw, encoding="utf-8", errors="replace")


def iter_insert_tuples(
    source: str | Path | IO[bytes], tally: ParseTally | None = None
) -> Iterator[tuple]:
    """Yield every value tuple from every INSERT statement in a SQL dump."""
    tally = tally if tally is not None else ParseTally()
    with ExitStack() as stack:
        raw = source
        if isinstance(source, (str, Path)):
            raw = stack.enter_context(open(source, "rb"))
        text = stack.enter_context(_open_text(raw))
        scanner = _InsertTupleScanner(tally)
        while True:
            chunk = text.read(_CHUNK_CHARS)
            if not chunk:
                break
            yield from scanner.feed(chunk)
        scanner.finish()


def parse_langlinks_dump(
    source: str | Path | IO[bytes],
    filter_lang: str | None = None,
    tally: ParseTally | None = None,
) -> Iterator[LangLink]:
    """Stream LangLink records from a `langlinks` table dump.

    Tuple shape is (ll_from, ll_lang, ll_title). When filter_lang is given,
    only links whose target language matches are yielded. Malformed tuples
    are tallied and skipped.
    """
    tally = tally if tally is not None else ParseTally()
    for fields in iter_insert_tuples(source, tally):
        if len(fields) != 3 or fields[0] is None or fields[1] is None or fields[2] is None:
            tally.malformed += 1
            continue
        try:
            from_id = int(fields[0])
        except ValueError:
            tally.malformed += 1
            continue
        lang = fields[1].lower()
        if from_id < 0 or not lang:
            tally.malformed += 1
            continue
        if filter_lang is not None and lang != filter_lang:
            continue
        tally.records_yielded += 1
        yield LangLink(from_id, lang, fields[2].replace("_", " "))


def parse_pages_dump(
    source: str | Path | IO[bytes],
    columns: PageColumns | None = None,
    tally: ParseTally | None = None,
) -> Iterator[PageRecord]:
    """Stream PageRecord rows from a `page` table dump.

    All namespaces and redirects pass through; alignment decides what to keep.
    """
    columns = columns if columns is not None else PageColumns()
    tally = tally if tally is not None else ParseTally()
    need = max(columns.page_id, columns.namespace, columns.title, columns.is_redirect) + 1
    for fields in iter_insert_tuples(source, tally):
        if len(fields) < need:
            tally.malformed += 1
            continue
        raw_id = fields[columns.page_id]
        raw_ns = fields[columns.namespace]
        raw_title = fields[columns.title]
        raw_redirect = fields[columns.is_redirect]
        if raw_id is None or raw_ns is None or raw_title is None or raw_redirect is None:
            tally.malformed += 1
            continue
        try:
            page_id = int(raw_id)
            namespace = int(raw_ns)
            is_redirect = bool(int(raw_redirect))
        except ValueError:
            tally.malformed += 1
            continue
        if page_id < 0:
            tally.malformed += 1
            continue
        tally.records_yielded += 1
        yield PageRecord(page_id, namespace, raw_title.replace("_", " "), is_redirect)


@dataclass
class ArticleTally:
    lines_read: int = 0
    records_yielded: int = 0
    skipped: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "lines_read": self.lines_read,
            "records_yielded": self.records_yielded,
            "skipped": self.skipped,
        }


def article_files(path: str | Path) -> list[Path]:
    """The extracted-article files under `path` (a file or a directory), in
    lexicographic order."""
    p = Path(path)
    if p.is_dir():
        return sorted(f for f in p.rglob("*") if f.is_file())
    return [p]


def read_extracted_articles(
    path: str | Path, lang: str, tally: ArticleTally | None = None
) -> Iterator[RawArticle]:
    """Stream RawArticle records from extracted-article JSONL files.

    `path` may be a single file or a directory; files are visited in
    lexicographic order and lines in file order, so iteration is
    deterministic. Unparseable lines and records missing `id`, `title`, or
    `text` are skipped and tallied. Records with empty text are yielded.
    """
    tally = tally if tally is not None else ArticleTally()
    for file in article_files(path):
        with open(file, "r", encoding="utf-8") as f:
            for line in f:
                tally.lines_read += 1
                line = line.strip()
                if not line:
                    tally.skipped += 1
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    tally.skipped += 1
                    continue
                if not isinstance(rec, dict) or not {"id", "title", "text"} <= rec.keys():
                    tally.skipped += 1
                    continue
                try:
                    page_id = int(rec["id"])
                except (TypeError, ValueError):
                    tally.skipped += 1
                    continue
                title = rec["title"]
                text = rec["text"]
                if not isinstance(title, str) or not isinstance(text, str):
                    tally.skipped += 1
                    continue
                tally.records_yielded += 1
                yield RawArticle(page_id, title, text, lang)
