"""Greedy packing of bilingual article pairs into delimiter-terminated contexts.

Each article is split into paragraphs on blank lines. A context holds two
language blocks, each led by its title, with all first-language segments before
all second-language segments ("first" is English under the en_first direction).
Paragraphs are taken pairwise, one from each side per step, while the projected
token cost stays within the budget; once one side runs out, the other continues
alone. When a context fills up it is closed and a new one opens (titles repeat
by default), until both sides are exhausted.

Cost accounting is per segment: every segment is priced as its text plus a
trailing blank-line delimiter, plus one token for the terminal delimiter token.
Each title and paragraph is split into tokenizer pieces once, when its article
is paragraphized, and its cost is its number of pieces. A context carries the
pieces of its segments, and encoding it maps them to ids in one call, so no
text is split twice. For non-merging tokenizers the cost equals the token
count of the rendered context exactly; for subword tokenizers the packer's
estimate may differ by a few tokens at segment seams, and the context index
records the encoded length, not the estimate.

A paragraph too large to fit even a fresh context is emitted alone, truncated
at token level (or skipped when truncation is disabled); that is the only case
where article text is not reproduced verbatim, and it is tallied.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .alignment import ArticlePair, PairId
from .tokenization import Tokenizer

SEGMENT_DELIM = "\n\n"

EN_FIRST = "en_first"
L_FIRST = "l_first"


class Segment(NamedTuple):
    lang: str
    kind: str  # "title" | "paragraph"
    text: str


@dataclass
class ParagraphizedArticle:
    title: str
    title_pieces: Sequence  # tokenizer pieces of title + SEGMENT_DELIM
    paragraphs: list[tuple[str, Sequence]]  # (text, pieces of text + SEGMENT_DELIM)
    lang: str


@dataclass
class PackedContext:
    segments: list[Segment]
    pieces: list[Sequence]  # per segment, the tokenizer pieces of its text + SEGMENT_DELIM
    token_len: int  # includes the terminal split token
    direction: str
    pair: PairId
    seq_index: int
    origin: str = "wiki"

    def rendered_text(self, split_token_text: str) -> str:
        return "".join(s.text + SEGMENT_DELIM for s in self.segments) + split_token_text

    def encode(self, tokenizer: Tokenizer) -> tuple[list[int], dict[str, int]]:
        """Token ids of the rendered context, plus per-language token counts.

        The segments' pieces are mapped in one `ids` call, in segment order,
        so a tokenizer that assigns ids on first encounter assigns them in
        corpus order. The terminal split token is in the ids but in no
        language's count.
        """
        flat: list = []
        per_language: dict[str, int] = {}
        for seg, pieces in zip(self.segments, self.pieces):
            flat += pieces
            per_language[seg.lang] = per_language.get(seg.lang, 0) + len(pieces)
        ids = tokenizer.ids(flat)
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
        if self.n_budget < 4:
            raise ValueError("n_budget must be at least 4 (two titles + a token + delimiter)")
        if not 0.0 <= self.mix_ratio <= 1.0:
            raise ValueError("mix_ratio must be within [0, 1]")


@dataclass
class PackTally:
    pairs_packed: int = 0
    contexts_emitted: int = 0
    degenerate_pairs: int = 0
    truncated_paragraphs: int = 0
    oversize_skipped: int = 0
    split_markers_scrubbed: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "pairs_packed": self.pairs_packed,
            "contexts_emitted": self.contexts_emitted,
            "degenerate_pairs": self.degenerate_pairs,
            "truncated_paragraphs": self.truncated_paragraphs,
            "oversize_skipped": self.oversize_skipped,
            "split_markers_scrubbed": self.split_markers_scrubbed,
        }


def split_paragraphs(text: str) -> list[str]:
    """Split on blank lines, trim each piece, drop empty pieces."""
    return [p for p in (piece.strip() for piece in text.split("\n\n")) if p]


def _scrub(text: str, marker: str, tally: PackTally) -> str:
    # The delimiter token text is reserved; occurrences in article text would
    # corrupt window boundaries downstream, so they are replaced.
    hits = text.count(marker)
    if hits:
        tally.split_markers_scrubbed += hits
        return text.replace(marker, " ")
    return text


def paragraphize(
    title: str, text: str, lang: str, tokenizer: Tokenizer, tally: PackTally
) -> ParagraphizedArticle:
    title = _scrub(title, tokenizer.split_token_text, tally).strip()
    text = _scrub(text, tokenizer.split_token_text, tally)
    pieces = tokenizer.pieces
    paragraphs = [(p, pieces(p + SEGMENT_DELIM)) for p in split_paragraphs(text)]
    return ParagraphizedArticle(title, pieces(title + SEGMENT_DELIM), paragraphs, lang)


class _ContextBuilder:
    """Accumulates one context's two language blocks and its running cost."""

    def __init__(self, first: ParagraphizedArticle, second: ParagraphizedArticle,
                 title_cost: int, with_titles: bool):
        # (segment, its pieces) per placed paragraph
        self.first_paras: list[tuple[Segment, Sequence]] = []
        self.second_paras: list[tuple[Segment, Sequence]] = []
        self.with_titles = with_titles
        self.first = first
        self.second = second
        self.cost = (title_cost if with_titles else 0) + 1  # + terminal split token
        self.placed = 0

    def add(self, to_first: bool, text: str, pieces: Sequence) -> None:
        art = self.first if to_first else self.second
        seg = Segment(art.lang, "paragraph", text)
        (self.first_paras if to_first else self.second_paras).append((seg, pieces))
        self.cost += len(pieces)
        self.placed += 1

    def parts(self) -> tuple[list[Segment], list[Sequence]]:
        """The context's segments in order, and the pieces of each."""
        parts: list[tuple[Segment, Sequence]] = []
        for art, paras in ((self.first, self.first_paras), (self.second, self.second_paras)):
            if self.with_titles:
                parts.append((Segment(art.lang, "title", art.title), art.title_pieces))
            parts += paras
        segments, pieces = zip(*parts)
        return list(segments), list(pieces)


def pack_pair(
    pair: ArticlePair,
    tokenizer: Tokenizer,
    cfg: PackConfig,
    direction: str,
    tally: PackTally | None = None,
) -> list[PackedContext]:
    """Pack one bilingual pair into one or more budgeted contexts.

    Returns [] when either side yields no paragraphs: a one-language context
    carries no cross-lingual signal.
    """
    tally = tally if tally is not None else PackTally()
    art_en = paragraphize(pair.title_en, pair.text_en, "en", tokenizer, tally)
    art_l = paragraphize(pair.title_l, pair.text_l, pair.lang_l, tokenizer, tally)
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
    contexts: list[PackedContext] = []

    def emit(builder: _ContextBuilder) -> None:
        segments, pieces = builder.parts()
        contexts.append(
            PackedContext(
                segments=segments,
                pieces=pieces,
                token_len=builder.cost,
                direction=direction,
                pair=pair.pair,
                seq_index=len(contexts),
                origin=pair.origin,
            )
        )
        tally.contexts_emitted += 1

    def emit_oversize(art: ParagraphizedArticle, text: str, pieces: Sequence) -> None:
        # Even a fresh context cannot hold this paragraph next to the titles.
        if not cfg.truncate_oversize:
            tally.oversize_skipped += 1
            return
        short = tokenizer.truncate_to_tokens(text, n - 1)
        if short != text:
            tally.truncated_paragraphs += 1
            pieces = tokenizer.pieces(short + SEGMENT_DELIM)
        contexts.append(
            PackedContext(
                segments=[Segment(art.lang, "paragraph", short)],
                pieces=[pieces],
                token_len=len(pieces) + 1,
                direction=direction,
                pair=pair.pair,
                seq_index=len(contexts),
                origin=pair.origin,
            )
        )
        tally.contexts_emitted += 1

    def emit_single(art: ParagraphizedArticle, is_first: bool, text: str,
                    pieces: Sequence) -> None:
        with_titles = cfg.repeat_titles or not contexts
        builder = _ContextBuilder(first, second, title_cost, with_titles)
        if builder.cost + len(pieces) <= n:
            builder.add(is_first, text, pieces)
            emit(builder)
        else:
            emit_oversize(art, text, pieces)

    i = j = 0
    na, nb = len(first.paragraphs), len(second.paragraphs)
    while i < na or j < nb:
        with_titles = cfg.repeat_titles or not contexts
        builder = _ContextBuilder(first, second, title_cost, with_titles)
        while i < na and j < nb:
            t1, p1 = first.paragraphs[i]
            t2, p2 = second.paragraphs[j]
            if builder.cost + len(p1) + len(p2) > n:
                break
            builder.add(True, t1, p1)
            builder.add(False, t2, p2)
            i += 1
            j += 1
        if i >= na:
            while j < nb and builder.cost + len(second.paragraphs[j][1]) <= n:
                builder.add(False, *second.paragraphs[j])
                j += 1
        elif j >= nb:
            while i < na and builder.cost + len(first.paragraphs[i][1]) <= n:
                builder.add(True, *first.paragraphs[i])
                i += 1
        if builder.placed:
            emit(builder)
            continue
        # Nothing fit a fresh context. Advance by placing the blocking
        # paragraph(s) one per context so the pairwise cursors stay in step.
        if i < na and j < nb:
            emit_single(first, True, *first.paragraphs[i])
            i += 1
            emit_single(second, False, *second.paragraphs[j])
            j += 1
        elif i < na:
            emit_single(first, True, *first.paragraphs[i])
            i += 1
        else:
            emit_single(second, False, *second.paragraphs[j])
            j += 1

    tally.pairs_packed += 1
    return contexts


def direction_for(pair_id: PairId, cfg: PackConfig) -> str:
    """Direction under the configured policy; the mix policy flips a seeded
    coin keyed by (seed, id_l, id_en) so assignment is stable per pair."""
    if cfg.direction_policy == EN_FIRST:
        return EN_FIRST
    if cfg.direction_policy == L_FIRST:
        return L_FIRST
    if cfg.direction_policy == "mix":
        key = f"{cfg.seed}:{pair_id.id_l}:{pair_id.id_en}".encode()
        h = hashlib.blake2b(key, digest_size=8).digest()
        u = int.from_bytes(h, "little") / 2.0**64
        return EN_FIRST if u < cfg.mix_ratio else L_FIRST
    raise ValueError(f"unknown direction policy {cfg.direction_policy!r}")


def pack_corpus(
    pairs: Iterable[ArticlePair],
    tokenizer: Tokenizer,
    cfg: PackConfig,
    tally: PackTally | None = None,
) -> Iterator[PackedContext]:
    """Pack a stream of pairs, emitting contexts in (pair order, seq_index)."""
    tally = tally if tally is not None else PackTally()
    for pair in pairs:
        direction = direction_for(pair.pair, cfg)
        yield from pack_pair(pair, tokenizer, cfg, direction, tally)
