"""Greedy packing of bilingual article pairs into delimiter-terminated contexts.

Each article is split into paragraphs on blank lines. A context holds two
language blocks, each led by its title, with all first-language segments before
all second-language segments ("first" is English under the en_first direction).
Paragraphs are taken pairwise, one from each side per step, while the token
cost stays within the budget; once one side runs out, the other continues
alone. When a context fills up it is closed and a new one opens (titles repeat
by default), until both sides are exhausted.

Every segment is priced as its text plus a trailing blank-line delimiter, plus
one token for the terminal delimiter token. Each title and paragraph is split
into tokenizer pieces once, when its article is paragraphized; the article
keeps its paragraphs' pieces as one flat sequence with an `offsets` prefix sum,
so a paragraph run costs `offsets[b] - offsets[a]`. While both sides have
paragraphs the two cursors move in lockstep, so one bisect over the summed
offsets of the pair finds how far a context reaches, and one bisect over a
side's offsets finds its one-sided tail. A context is therefore two paragraph
ranges over the pair's articles, and encoding it maps the title pieces and two
flat slices to ids in one call. Since `len(ids) == len(pieces)` for every
tokenizer kind, a context's cost is exactly its encoded length.

A paragraph too large to fit even a fresh context is emitted alone, truncated
at token level so that it and its delimiter leave room for the split token (or
skipped when truncation is disabled); that is the only case where article text
is not reproduced verbatim, and it is tallied.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterator, NamedTuple, Sequence

from .alignment import ArticlePair, PairId
from .tokenization import Tokenizer

SEGMENT_DELIM = "\n\n"

EN_FIRST = "en_first"
L_FIRST = "l_first"


class Segment(NamedTuple):
    lang: str
    kind: str  # "title" | "paragraph"
    text: str


@dataclass(slots=True)
class ParagraphizedArticle:
    title: str
    title_pieces: Sequence  # tokenizer pieces of title + SEGMENT_DELIM
    paragraphs: list[str]
    flat: Sequence  # pieces of each paragraph + SEGMENT_DELIM, concatenated
    offsets: list[int]  # paragraph k's pieces are flat[offsets[k]:offsets[k + 1]]
    lang: str
    markers_scrubbed: int = 0  # split markers replaced in the title and text


@dataclass(slots=True)
class PackedContext:
    """Two paragraph ranges over a pair's articles, each led by its title
    when with_titles is set; a range (a, b) holds paragraphs a..b-1."""

    first: ParagraphizedArticle
    second: ParagraphizedArticle
    with_titles: bool
    first_range: tuple[int, int]
    second_range: tuple[int, int]
    token_len: int  # includes the terminal split token
    direction: str
    pair: PairId
    seq_index: int
    origin: str = "wiki"

    def _blocks(self) -> Iterator[tuple[ParagraphizedArticle, int, int]]:
        """(article, a, b) of each language block that holds a segment."""
        for art, (a, b) in ((self.first, self.first_range), (self.second, self.second_range)):
            if self.with_titles or a < b:
                yield art, a, b

    @property
    def segments(self) -> list[Segment]:
        out: list[Segment] = []
        for art, a, b in self._blocks():
            if self.with_titles:
                out.append(Segment(art.lang, "title", art.title))
            out += [Segment(art.lang, "paragraph", t) for t in art.paragraphs[a:b]]
        return out

    def rendered_text(self, split_token_text: str) -> str:
        return "".join(s.text + SEGMENT_DELIM for s in self.segments) + split_token_text

    def encode(self, tokenizer: Tokenizer) -> tuple[list[int], dict[str, int]]:
        """Token ids of the rendered context, plus per-language token counts.

        The title pieces and paragraph slices are mapped in one `ids` call, in
        segment order, so a tokenizer that assigns ids on first encounter
        assigns them in corpus order. The terminal split token is in the ids
        but in no language's count.
        """
        pieces = self.first.flat[:0]
        per_language: dict[str, int] = {}
        for art, a, b in self._blocks():
            part = art.flat[art.offsets[a]:art.offsets[b]]
            if self.with_titles:
                part = art.title_pieces + part
            pieces += part
            per_language[art.lang] = per_language.get(art.lang, 0) + len(part)
        ids = tokenizer.ids(pieces)
        ids.append(tokenizer.split_token_id)
        return ids, per_language


@dataclass
class PackConfig:
    n_budget: int = 4096
    direction_policy: str = EN_FIRST  # en_first | l_first | mix
    mix_ratio: float = 0.5  # probability of en_first under the mix policy
    seed: int = 0
    repeat_titles: bool = True
    truncate_oversize: bool = True

    def __post_init__(self) -> None:
        # Two titles, a token and the delimiter need at least 4.
        if not 4 <= self.n_budget <= 2**31:
            raise ValueError(f"n_budget: {self.n_budget!r} outside [4, {2**31}]")
        if self.direction_policy not in (EN_FIRST, L_FIRST, "mix"):
            raise ValueError(f"direction_policy: unknown policy {self.direction_policy!r}")
        if not 0.0 <= self.mix_ratio <= 1.0:
            raise ValueError(f"mix_ratio: expected probability in [0, 1] or 'a:b' ratio, "
                             f"got {self.mix_ratio!r}")


@dataclass
class PackTally:
    # pairs_in = pairs_packed + degenerate_pairs + the join's pairs_missing_text
    pairs_in: int = 0
    pairs_packed: int = 0
    degenerate_pairs: int = 0
    truncated_paragraphs: int = 0
    oversize_skipped: int = 0
    split_markers_scrubbed: int = 0


def split_paragraphs(text: str) -> list[str]:
    """Split on blank lines, trim each piece, drop empty pieces."""
    return [p for p in map(str.strip, text.split("\n\n")) if p]


def paragraphize(title: str, text: str, lang: str, tokenizer: Tokenizer) -> ParagraphizedArticle:
    # The delimiter token text is reserved; occurrences in article text would
    # corrupt window boundaries downstream, so they are replaced.
    marker = tokenizer.split_token_text
    scrubbed = title.count(marker) + text.count(marker)
    if scrubbed:
        title, text = title.replace(marker, " "), text.replace(marker, " ")
    title = title.strip()
    pieces = tokenizer.pieces
    title_pieces = pieces(title + SEGMENT_DELIM)
    paragraphs = split_paragraphs(text)
    parts = [pieces(p + SEGMENT_DELIM) for p in paragraphs]
    # bytes for the byte kind, a list of words for the others
    if isinstance(title_pieces, bytes):
        flat = b"".join(parts)
    else:
        flat = list(chain.from_iterable(parts))
    offsets = [0, *accumulate(map(len, parts))]
    return ParagraphizedArticle(title, title_pieces, paragraphs, flat, offsets, lang, scrubbed)


def pack_pair(
    pair: ArticlePair,
    tokenizer: Tokenizer,
    cfg: PackConfig,
    direction: str,
    tally: PackTally | None = None,
    art_l: ParagraphizedArticle | None = None,
) -> list[PackedContext]:
    """Pack one bilingual pair into one or more budgeted contexts.

    `art_l` is the target side already paragraphized from the pair's title_l,
    text_l and lang_l, so that a caller can reuse it across the pairs of one
    article; it is made here when None. Its split markers count for this pair
    either way.

    Returns [] when either side yields no paragraphs: a one-language context
    carries no cross-lingual signal.
    """
    tally = tally if tally is not None else PackTally()
    art_en = paragraphize(pair.title_en, pair.text_en, "en", tokenizer)
    if art_l is None:
        art_l = paragraphize(pair.title_l, pair.text_l, pair.lang_l, tokenizer)
    tally.split_markers_scrubbed += art_en.markers_scrubbed + art_l.markers_scrubbed
    if not art_en.paragraphs or not art_l.paragraphs:
        tally.degenerate_pairs += 1
        return []
    if direction == EN_FIRST:
        first, second = art_en, art_l
    elif direction == L_FIRST:
        first, second = art_l, art_en
    else:
        raise ValueError(f"unknown direction {direction!r}")

    n = cfg.n_budget
    title_cost = len(first.title_pieces) + len(second.title_pieces)
    o1, o2 = first.offsets, second.offsets
    na, nb = len(o1) - 1, len(o2) - 1
    both = [x + y for x, y in zip(o1, o2)]  # cost of the first k paragraph pairs
    m = len(both) - 1
    contexts: list[PackedContext] = []

    def emit(a1: ParagraphizedArticle, a2: ParagraphizedArticle, with_titles: bool,
             r1: tuple[int, int], r2: tuple[int, int], token_len: int) -> None:
        contexts.append(PackedContext(a1, a2, with_titles, r1, r2, token_len, direction,
                                      pair.pair, len(contexts), pair.origin))

    def emit_single(is_first: bool, k: int) -> None:
        art = first if is_first else second
        with_titles = cfg.repeat_titles or not contexts
        cost = art.offsets[k + 1] - art.offsets[k] + 1 + (title_cost if with_titles else 0)
        if cost <= n:
            if is_first:
                emit(first, second, with_titles, (k, k + 1), (0, 0), cost)
            else:
                emit(first, second, with_titles, (0, 0), (k, k + 1), cost)
        elif not cfg.truncate_oversize:
            tally.oversize_skipped += 1
        else:
            # Even a fresh context cannot hold this paragraph next to the
            # titles, so it goes alone, as a one-paragraph article.
            text = art.paragraphs[k]
            pieces = art.flat[art.offsets[k]:art.offsets[k + 1]]
            if len(pieces) >= n:
                keep = n - 1 - len(tokenizer.pieces(SEGMENT_DELIM))
                text = tokenizer.truncate_to_tokens(text, keep)
                pieces = tokenizer.pieces(text + SEGMENT_DELIM)
                tally.truncated_paragraphs += 1
            alone = ParagraphizedArticle(art.title, art.title_pieces, [text], pieces,
                                         [0, len(pieces)], art.lang)
            emit(alone, alone, False, (0, 1), (0, 0), len(pieces) + 1)

    i = j = 0
    while i < na or j < nb:
        with_titles = cfg.repeat_titles or not contexts
        room = n - 1 - (title_cost if with_titles else 0)
        i0, j0 = i, j
        if room >= 0:
            if i < m:  # both sides have paragraphs left, and i == j
                k = bisect_right(both, both[i] + room, i, m + 1) - 1
                room -= both[k] - both[i]
                i = j = k
            if i >= na:
                k = bisect_right(o2, o2[j] + room, j, nb + 1) - 1
                room -= o2[k] - o2[j]
                j = k
            elif j >= nb:
                k = bisect_right(o1, o1[i] + room, i, na + 1) - 1
                room -= o1[k] - o1[i]
                i = k
        if i > i0 or j > j0:
            emit(first, second, with_titles, (i0, i), (j0, j), n - room)
            continue
        # Nothing fit a fresh context. Advance by placing the blocking
        # paragraph(s) one per context so the pairwise cursors stay in step.
        if i < na:
            emit_single(True, i)
            i += 1
        if j < nb:
            emit_single(False, j)
            j += 1

    tally.pairs_packed += 1
    return contexts


def direction_for(pair_id: PairId, cfg: PackConfig) -> str:
    """Direction under the configured policy; the mix policy flips a seeded
    coin keyed by (seed, id_l, id_en) so assignment is stable per pair."""
    if cfg.direction_policy != "mix":
        return cfg.direction_policy
    key = f"{cfg.seed}:{pair_id.id_l}:{pair_id.id_en}".encode()
    h = hashlib.blake2b(key, digest_size=8).digest()
    u = int.from_bytes(h, "little") / 2.0**64
    return EN_FIRST if u < cfg.mix_ratio else L_FIRST
