"""Streaming parsers for MediaWiki SQL dumps and extracted-article files.

The SQL side handles the machine-generated `INSERT INTO ... VALUES (...),(...);`
statements found in `*-langlinks.sql(.gz)` and `*-page.sql(.gz)` dumps. A
hand-rolled tuple scanner is used instead of a SQL parser: these files have a
fixed grammar, and the scanner runs in constant memory over arbitrarily large
inputs. Malformed tuples are tallied and skipped; a truncated file (ending
mid-statement) or one of malformed tuples only raises, after every complete
tuple has been yielded.

The two parsers scan column-projected: between tuples, one compiled regex
(`_PAGE_TUPLE`, `_LANGLINK_TUPLE`) matches a whole well-formed tuple and
captures only the columns the parser reads, so the skipped columns cost no
Python step. Escapes are resolved only in a captured string that holds a
backslash or a doubled quote. A tuple the regex misses takes the per-field
path, which parses one whole field per step with the same string rule and
escape resolver and yields all of the tuple's fields, and the regex is tried
again after it; so the tallies and truncation errors are exactly those of the
per-field path alone. A field cut by the end of a chunk is carried whole into
the next one.

The article side parses line-delimited JSON records (`id`, `title`, `text`)
as produced by common wikitext extraction tools, one line at a time:
`parse_article_line` is the one record rule, and `alignment.scan_articles`
(streamed by retrieve, indexed by pack's ArticleStores) the one reader.
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

# Whole-tuple patterns for the fast path: the separators before a tuple, then
# `(`, every field with no spaces around it, and `)`. Each group is one column
# a parser reads: digits for a number, the body of a quoted string for text.
# Other columns are matched and dropped. The string body is unrolled (a run of
# plain characters, then an escape or a doubled quote, ...), so a long value
# or a miss costs time linear in its length.
_RE_QUOTED_BODY = r"[^'\\]*(?:(?:\\.|'')[^'\\]*)*"
_RE_NUMBER = r"([0-9]+)"
_RE_STRING = r"'(" + _RE_QUOTED_BODY + r")'"
_RE_SKIPPED = r"(?:,(?:'" + _RE_QUOTED_BODY + r"'|[^',)]*))*"
_RE_TUPLE_START = r"[, \t\r\n]*\("

# (page_id, page_namespace, page_title, page_is_redirect, ...)
_PAGE_TUPLE = re.compile(
    _RE_TUPLE_START + ",".join((_RE_NUMBER, _RE_NUMBER, _RE_STRING, _RE_NUMBER))
    + _RE_SKIPPED + r"\)",
    re.DOTALL,
)
# (ll_from, ll_lang, ll_title)
_LANGLINK_TUPLE = re.compile(
    _RE_TUPLE_START + ",".join((_RE_NUMBER, _RE_STRING, _RE_STRING)) + r"\)", re.DOTALL
)
_ESCAPE_OR_QUOTE = re.compile(r"\\(.)|''", re.DOTALL)

# One field of a tuple the fast path missed: a quoted string and the character
# after it (a closing quote must not be followed by a quote, or the two would
# be a doubled quote), or an unquoted value up to the `,` or `)` that ends it.
_QUOTED_FIELD = re.compile(_RE_STRING + r"[^']", re.DOTALL)
_UNQUOTED_END = re.compile(r"[,)]")


def _resolve_escape(m: re.Match) -> str:
    c = m.group(1)
    return "'" if c is None else _SQL_ESCAPES.get(c, c)


def _captured(m: re.Match) -> tuple[str, ...]:
    """The groups of a whole-tuple match, with escapes resolved in each one
    that holds a backslash or a doubled quote (numbers never do)."""
    fields = m.groups()
    for f in fields:
        if "\\" in f or "''" in f:
            return tuple(_ESCAPE_OR_QUOTE.sub(_resolve_escape, g) for g in fields)
    return fields


class TruncatedDumpError(ValueError):
    """The input ended in the middle of an INSERT statement; the message says
    where: in its header, between tuples or inside a field."""


@dataclass
class ParseTally:
    """Counters for one scan of one input; never causes the scan to abort."""

    tuples_scanned: int = 0
    records_yielded: int = 0
    malformed: int = 0
    resyncs: int = 0


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


# Scanner modes.
_SEEK, _HEADER, _BETWEEN, _FIELD = range(4)

# Where the input ended, for each mode a truncated dump can stop in.
_TRUNCATED_AT = {_HEADER: "in its header", _BETWEEN: "between tuples",
                 _FIELD: "inside a field"}


class _InsertTupleScanner:
    """Incremental scanner over INSERT statements, fed one text chunk at a time.

    Field values come back as str, with SQL string escapes resolved; an
    unquoted NULL comes back as None. State carried between chunks is bounded
    by the size of one field, never by the size of the input.

    With a `projection` (`_PAGE_TUPLE` or `_LANGLINK_TUPLE`), a tuple it
    matches between tuples comes back as just its groups. A tuple it misses
    (malformed, NULL or a sign in a read column, spaces, or cut by the chunk
    end) is parsed one whole field at a time and comes back whole: a quoted
    field by `_QUOTED_FIELD`, which uses the fast path's string rule, and an
    unquoted one up to the next `,` or `)`. A field the chunk end cuts is
    carried whole, from its first non-blank character, into the next chunk.
    """

    def __init__(self, tally: ParseTally, projection: re.Pattern | None = None):
        self._tally = tally
        self._match = projection.match if projection is not None else None
        self._mode = _SEEK
        # Synthetic leading newline so a statement at offset 0 anchors the needle.
        self._pending = "\n"
        self._fields: list[str | None] = []

    def feed(self, chunk: str) -> list[tuple]:
        out: list[tuple] = []
        work = self._pending + chunk
        self._pending = ""
        pos = 0
        n = len(work)
        match = self._match
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
                if match is not None:
                    m = match(work, pos)
                    while m:
                        self._tally.tuples_scanned += 1
                        out.append(_captured(m))
                        pos = m.end()
                        m = match(work, pos)
                    if pos == n:
                        break
                ch = work[pos]
                if ch == "(":
                    self._fields = []
                    self._mode = _FIELD
                    pos += 1
                elif ch == ";":
                    self._mode = _SEEK
                    pos += 1
                elif ch in ", \t\r\n":
                    pos += 1
                else:
                    pos = self._resync(work, pos)
            else:  # _FIELD
                while pos < n and work[pos] in " \t":
                    pos += 1
                if pos == n:
                    break
                if work[pos] == "'":
                    m = _QUOTED_FIELD.match(work, pos)
                    if m:
                        self._fields.append(_ESCAPE_OR_QUOTE.sub(_resolve_escape, m.group(1)))
                else:
                    m = _UNQUOTED_END.search(work, pos)
                    if m:
                        value = work[pos:m.start()].strip()
                        self._fields.append(None if value == "NULL" else value)
                if not m:
                    # The field may go on in the next chunk.
                    self._pending = work[pos:]
                    break
                pos = m.end()
                end = work[pos - 1]
                if end == ")":
                    self._tally.tuples_scanned += 1
                    out.append(tuple(self._fields))
                    self._mode = _BETWEEN
                elif end != ",":
                    pos = self._resync(work, pos - 1)
        return out

    def finish(self) -> None:
        if self._mode != _SEEK:
            raise TruncatedDumpError(
                "input ended inside an INSERT statement, " + _TRUNCATED_AT[self._mode]
            )

    def _resync(self, work: str, pos: int) -> int:
        """Drop the statement at `work[pos]`, a character no tuple can hold;
        scanning goes on from the first newline at or after it (the end of
        `work` if there is none), so a newline that is itself that character
        still anchors the next statement."""
        self._tally.resyncs += 1
        self._fields = []
        self._mode = _SEEK
        nl = work.find("\n", pos)
        return nl if nl >= 0 else len(work)


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
    source: str | Path | IO[bytes],
    tally: ParseTally | None = None,
    projection: re.Pattern | None = None,
) -> Iterator[tuple]:
    """Yield every value tuple from every INSERT statement in a SQL dump.

    With a `projection`, a tuple the pattern matches yields only its groups;
    see `_InsertTupleScanner`. A dump whose every tuple the caller tallies
    malformed raises at its end.
    """
    tally = tally if tally is not None else ParseTally()
    with ExitStack() as stack:
        raw = source
        if isinstance(source, (str, Path)):
            raw = stack.enter_context(open(source, "rb"))
        text = stack.enter_context(_open_text(raw))
        scanner = _InsertTupleScanner(tally, projection)
        while True:
            # Read at least as much as the scanner carries: a field that spans
            # k chunks is then rescanned about log2(k) times, not k times.
            chunk = text.read(max(_CHUNK_CHARS, len(scanner._pending)))
            if not chunk:
                break
            yield from scanner.feed(chunk)
        scanner.finish()
    if tally.tuples_scanned and tally.malformed == tally.tuples_scanned:
        raise ValueError(f"{source}: all {tally.malformed} tuples scanned are malformed; "
                         "this dump's column layout cannot be read")


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
    for fields in iter_insert_tuples(source, tally, _LANGLINK_TUPLE):
        if len(fields) != 3 or None in fields:
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
    tally: ParseTally | None = None,
) -> Iterator[PageRecord]:
    """Stream PageRecord rows from a `page` table dump whose tuples start with
    (page_id, page_namespace, page_title, page_is_redirect, ...).

    All namespaces and redirects pass through; alignment decides what to keep.
    """
    tally = tally if tally is not None else ParseTally()
    for fields in iter_insert_tuples(source, tally, _PAGE_TUPLE):
        if len(fields) < 4 or None in fields[:4]:
            tally.malformed += 1
            continue
        raw_id, raw_ns, raw_title, raw_redirect = fields[:4]
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


def article_files(path: str | Path) -> list[Path]:
    """The extracted-article files under `path` (a file or a directory), in
    lexicographic order."""
    p = Path(path)
    if p.is_dir():
        return sorted(f for f in p.rglob("*") if f.is_file())
    return [p]


def parse_article_line(line: bytes, lang: str) -> RawArticle | None:
    """The record on one extracted-article line, or None when the line is not
    a JSON object with string `title` and `text` whose `id` is a non-negative
    integer or a string of ASCII digits. Empty text still makes a record."""
    try:
        rec = json.loads(line)
        page_id, title, text = rec["id"], rec["title"], rec["text"]
        if isinstance(page_id, str) and page_id.isascii() and page_id.isdigit():
            page_id = int(page_id)
    except (ValueError, KeyError, TypeError, RecursionError):
        return None
    if type(page_id) is not int or page_id < 0 or not isinstance(title, str) \
            or not isinstance(text, str):
        return None
    return RawArticle(page_id, title, text, lang)
