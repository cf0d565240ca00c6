"""Pluggable tokenizers with a reserved delimiter token.

Every tokenizer reserves one id (default 0) for the delimiter text (default
"[SPLIT]"): the delimiter substring always encodes to exactly that id, and no
ordinary text ever produces it. Three kinds are provided:

- whitespace: ids assigned per distinct word on first encounter, starting at 1.
  Hand-checkable; used throughout the test suite.
- byte: UTF-8 byte b maps to id b + 1.
- external: word-to-id vocabulary loaded from a file (``token<TAB>id`` lines;
  an optional ``#merges`` section of two-field rules is accepted and skipped).
  Ids are shifted by +1 at load time if the vocabulary already uses the
  reserved id. The merge rules are unused, since words map whole, but each
  line after ``#merges`` must still have two fields: the file is outside
  input, and any other line there shows a file in another format than this
  reader assumes, which is refused rather than read in part.

Each kind tokenizes in two steps: `pieces(text)` splits delimiter-free text
into the units that become tokens (words, or UTF-8 byte values for byte), and
`ids(pieces)` maps them to ids. A text's token count is its number of pieces,
so a caller that keeps the pieces can price text and later encode it without
splitting it again. `encode` and `count` run the two steps on each part of a
text between delimiters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .dump_ingest import numbered_lines

_WORD = re.compile(r"\S+")

DEFAULT_SPLIT_TOKEN = "[SPLIT]"


class TokenizerError(ValueError):
    pass


@dataclass
class TokenizerSpec:
    kind: str = "whitespace"  # whitespace | byte | external
    vocab_source: str | None = None
    split_token_text: str = DEFAULT_SPLIT_TOKEN
    split_token_id: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("whitespace", "byte", "external"):
            raise TokenizerError(f"kind: unknown kind {self.kind!r}")
        if self.kind == "external" and not self.vocab_source:
            raise TokenizerError("vocab_source: required for the external kind")
        if not self.split_token_text:
            raise TokenizerError("split_token_text: must be non-empty")
        if not 0 <= self.split_token_id < 2**32:
            raise TokenizerError(f"split_token_id: {self.split_token_id!r} outside [0, {2**32})")
        # Byte ids are fixed at b + 1 and external ids come from the vocab
        # file; only id 0 is guaranteed collision-free for them.
        if self.kind != "whitespace" and self.split_token_id != 0:
            raise TokenizerError(f"split_token_id: the {self.kind} tokenizer requires 0")


class Tokenizer:
    """Base class handling the reserved delimiter; subclasses define `ids`.

    Pieces, and so counting and truncation, are word-level here: a word is a
    maximal non-whitespace run. ByteTokenizer overrides all three.

    count is a pure function of the input text. ids, and so encode, is too,
    except that the whitespace kind assigns word ids on first encounter, so
    ids depend on the order pieces are mapped in; the pipeline maps each
    context's pieces once, in corpus order, in one process.
    """

    kind = "base"

    def __init__(self, split_token_text: str = DEFAULT_SPLIT_TOKEN, split_token_id: int = 0):
        self.split_token_text = split_token_text
        self.split_token_id = split_token_id

    def pieces(self, text: str) -> Sequence:
        """The units of `text`, which must not contain the delimiter."""
        return text.split()

    def ids(self, pieces: Sequence) -> list[int]:
        raise NotImplementedError

    def encode(self, text: str) -> list[int]:
        first, *rest = text.split(self.split_token_text)
        out = self.ids(self.pieces(first))
        for part in rest:
            out.append(self.split_token_id)
            out += self.ids(self.pieces(part))
        return out

    def count(self, text: str) -> int:
        parts = text.split(self.split_token_text)
        return sum(len(self.pieces(p)) for p in parts) + len(parts) - 1

    def truncate_to_tokens(self, text: str, max_tokens: int) -> str:
        """Longest prefix of `text` encoding to at most max_tokens tokens.

        Assumes the text does not contain the delimiter substring (packing
        scrubs it before any truncation can happen).
        """
        end = 0
        for i, m in enumerate(_WORD.finditer(text)):
            if i >= max_tokens:
                return text[:end]
            end = m.end()
        return text


class _FirstSeenIds(dict):
    """Word -> id; looking up a new word gives it the next id, which must fit
    in u32."""

    def __init__(self, first_id: int):
        super().__init__()
        self.next_id = first_id

    def __missing__(self, word: str) -> int:
        if self.next_id >= 2**32:
            raise TokenizerError(
                f"tokenizer.split_token_id: word ids count up from split_token_id + 1, so"
                f" {self.next_id - len(self) - 1} leaves room for {len(self)} distinct words"
                f" below 2^32, and the corpus has more"
            )
        wid = self[word] = self.next_id
        self.next_id += 1
        return wid


class WhitespaceTokenizer(Tokenizer):
    """Words are maximal non-whitespace runs; ids start at 1 in encounter order."""

    kind = "whitespace"

    def __init__(self, split_token_text: str = DEFAULT_SPLIT_TOKEN, split_token_id: int = 0):
        super().__init__(split_token_text, split_token_id)
        self._ids = _FirstSeenIds(split_token_id + 1)

    def ids(self, pieces: Sequence[str]) -> list[int]:
        # Pieces are looked up in order, so new words take ids in the order
        # they first appear.
        return list(map(self._ids.__getitem__, pieces))


class ByteTokenizer(Tokenizer):
    """UTF-8 byte value b encodes to id b + 1, keeping 0 free for the delimiter."""

    kind = "byte"

    def pieces(self, text: str) -> bytes:
        return text.encode("utf-8")

    def ids(self, pieces: Sequence[int]) -> list[int]:
        return [b + 1 for b in pieces]

    def truncate_to_tokens(self, text: str, max_tokens: int) -> str:
        data = text.encode("utf-8")
        if len(data) <= max_tokens:
            return text
        return data[:max_tokens].decode("utf-8", errors="ignore")


class ExternalVocabTokenizer(Tokenizer):
    """Word-level lookup against a vocabulary file.

    Unknown words fall back to an ``<unk>`` entry when the vocabulary defines
    one; otherwise they are an error (a corpus tokenized with the wrong vocab
    should fail loudly, not silently skew counts).
    """

    kind = "external"

    def __init__(
        self,
        vocab: dict[str, int],
        split_token_text: str = DEFAULT_SPLIT_TOKEN,
        split_token_id: int = 0,
    ):
        super().__init__(split_token_text, split_token_id)
        if split_token_id in vocab.values():
            vocab = {tok: tid + 1 for tok, tid in vocab.items()}
        self._vocab = vocab
        self._unk = vocab.get("<unk>")

    @classmethod
    def from_file(cls, path: str | Path, split_token_text: str, split_token_id: int):
        vocab: dict[str, int] = {}
        in_merges = False
        try:
            lines = list(numbered_lines(path))
        except OSError as e:
            raise TokenizerError(f"cannot read vocab file {path}: {e}") from e
        for lineno, _, line in lines:
            try:
                line = line.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as e:
                raise TokenizerError(f"{path}:{lineno}: not UTF-8: {e}") from e
            if line.strip() == "#merges":
                in_merges = True
                continue
            if in_merges:
                if len(line.split()) != 2:
                    raise TokenizerError(f"{path}:{lineno}: malformed merge rule {line!r}")
                continue
            tok, sep, tid = line.partition("\t")
            if not sep or not tok:
                raise TokenizerError(f"{path}:{lineno}: expected token<TAB>id, got {line!r}")
            try:
                token_id = int(tid)
            except ValueError as e:
                raise TokenizerError(f"{path}:{lineno}: non-integer id {tid!r}") from e
            if token_id < 0:
                raise TokenizerError(f"{path}:{lineno}: negative id {token_id}")
            vocab[tok] = token_id
        if not vocab:
            raise TokenizerError(f"{path}: empty vocabulary")
        return cls(vocab, split_token_text, split_token_id)

    def ids(self, pieces: Sequence[str]) -> list[int]:
        out = list(map(self._vocab.get, pieces))
        if None in out:
            if self._unk is None:
                word = pieces[out.index(None)]
                raise TokenizerError(f"word not in vocabulary and no <unk> entry: {word!r}")
            out = [self._unk if wid is None else wid for wid in out]
        return out


def make_tokenizer(spec: TokenizerSpec) -> Tokenizer:
    if spec.kind == "byte":
        return ByteTokenizer(spec.split_token_text, spec.split_token_id)
    if spec.kind == "external":
        return ExternalVocabTokenizer.from_file(
            spec.vocab_source, spec.split_token_text, spec.split_token_id
        )
    return WhitespaceTokenizer(spec.split_token_text, spec.split_token_id)
