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
  reserved id.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

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


@dataclass
class TokenSeq:
    ids: list[int]
    source_len_chars: int

    def __len__(self) -> int:
        return len(self.ids)


class Tokenizer:
    """Base class handling the reserved delimiter; subclasses encode plain text.

    Counting and truncation are word-level here: a word is a maximal
    non-whitespace run. ByteTokenizer overrides both.

    count is a pure function of the input text. encode is too, except that
    the whitespace kind assigns word ids on first encounter, so ids depend on
    the order texts are encoded in; the pipeline encodes each context once,
    in corpus order, in one process.
    """

    kind = "base"

    def __init__(self, split_token_text: str = DEFAULT_SPLIT_TOKEN, split_token_id: int = 0):
        self.split_token_text = split_token_text
        self.split_token_id = split_token_id

    def encode(self, text: str) -> TokenSeq:
        ids: list[int] = []
        parts = text.split(self.split_token_text)
        for k, part in enumerate(parts):
            if k:
                ids.append(self.split_token_id)
            ids.extend(self._encode_plain(part))
        return TokenSeq(ids, len(text))

    def count(self, text: str) -> int:
        parts = text.split(self.split_token_text)
        return sum(self._count_plain(p) for p in parts) + len(parts) - 1

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

    def _encode_plain(self, text: str) -> list[int]:
        raise NotImplementedError

    def _count_plain(self, text: str) -> int:
        return len(text.split())


class WhitespaceTokenizer(Tokenizer):
    """Words are maximal non-whitespace runs; ids start at 1 in encounter order."""

    kind = "whitespace"

    def __init__(self, split_token_text: str = DEFAULT_SPLIT_TOKEN, split_token_id: int = 0):
        super().__init__(split_token_text, split_token_id)
        self._ids: dict[str, int] = {}
        self._next_id = split_token_id + 1

    def _encode_plain(self, text: str) -> list[int]:
        ids = self._ids
        out = []
        for word in text.split():
            wid = ids.get(word)
            if wid is None:
                wid = self._next_id
                ids[word] = wid
                self._next_id += 1
            out.append(wid)
        return out

    @property
    def vocab_size(self) -> int:
        return len(self._ids)


class ByteTokenizer(Tokenizer):
    """UTF-8 byte value b encodes to id b + 1, keeping 0 free for the delimiter."""

    kind = "byte"

    def _encode_plain(self, text: str) -> list[int]:
        return [b + 1 for b in text.encode("utf-8")]

    def _count_plain(self, text: str) -> int:
        return len(text.encode("utf-8"))

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
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except OSError as e:
            raise TokenizerError(f"cannot read vocab file {path}: {e}") from e
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
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

    def _encode_plain(self, text: str) -> list[int]:
        out = []
        for word in text.split():
            wid = self._vocab.get(word, self._unk)
            if wid is None:
                raise TokenizerError(f"word not in vocabulary and no <unk> entry: {word!r}")
            out.append(wid)
        return out


def make_tokenizer(spec: TokenizerSpec) -> Tokenizer:
    if not spec.split_token_text:
        raise TokenizerError("split_token_text must be non-empty")
    if spec.kind == "whitespace":
        return WhitespaceTokenizer(spec.split_token_text, spec.split_token_id)
    if spec.kind == "byte":
        # Byte ids are fixed at b + 1; only id 0 is guaranteed collision-free.
        if spec.split_token_id != 0:
            raise TokenizerError("byte tokenizer requires split_token_id 0")
        return ByteTokenizer(spec.split_token_text, spec.split_token_id)
    if spec.kind == "external":
        if not spec.vocab_source:
            raise TokenizerError("external tokenizer requires vocab_source")
        if spec.split_token_id != 0:
            raise TokenizerError("external tokenizer requires split_token_id 0")
        return ExternalVocabTokenizer.from_file(
            spec.vocab_source, spec.split_token_text, spec.split_token_id
        )
    raise TokenizerError(f"unknown tokenizer kind {spec.kind!r}")
