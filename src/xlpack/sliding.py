"""Window plans over a stream of delimiter-terminated contexts.

Each policy is a planner: it reads the contexts' token lengths and yields
(start, end) token ranges of their concatenated stream. The boundary rule
depends only on where contexts end, so no planner reads an id; cut_windows
slices the planned ranges out of the ids.

- optimized: slide a raw n-token window and retreat its end to the last
  context end inside it, so each window holds whole contexts while they fit.
  The next window starts where this one ends: tokens past the retreat are
  deferred, not discarded, and the ranges tile the stream.
- standard: the fixed-stride baseline, range(0, total, n). Contexts may be
  cut mid-sequence, and the final remainder (< n tokens) is optional.
- lossy (comparison runs only): raw windows at stride n, each retreated to the
  last context end inside it. The tokens between the retreat and the raw
  boundary are discarded, so a context head can be lost entirely.

SlidePolicy.kind names the policy; like every other setting it lives in the
config, so its digest tells shard sets of different policies apart.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Sequence


class ContextStreamError(ValueError):
    """An input context violates the packing invariants the windows rely on."""


@dataclass
class SlidePolicy:
    kind: str = "optimized"  # optimized | standard | lossy
    n_budget: int = 4096
    keep_final_partial: bool = True  # standard policy only

    def __post_init__(self) -> None:
        if self.kind not in ("optimized", "standard", "lossy"):
            raise ValueError(f"kind: unknown kind {self.kind!r}")


def check_context(ids: Sequence[int], n: int, split_token_id: int, index: int) -> None:
    """Refuse a context that is empty, over the budget, or not terminated by
    exactly one split token."""
    if not ids:
        raise ContextStreamError(f"context {index} is empty")
    if len(ids) > n:
        raise ContextStreamError(f"context {index} has {len(ids)} tokens, budget is {n}")
    first_split = _first_u32_index(ids, split_token_id)
    if first_split < 0:
        raise ContextStreamError(f"context {index} lacks the terminal split token")
    if first_split != len(ids) - 1:
        raise ContextStreamError(f"context {index} contains an interior split token")


def _first_u32_index(ids: Sequence[int], value: int) -> int:
    """The index of `value`'s first occurrence in u32 `ids`, or -1.

    One bytes.find of the value's packed bytes over the record's bytes, so no
    id is boxed; a hit whose offset is not a multiple of the item size spans
    two ids and is stepped past."""
    if not 0 <= value < 1 << 32:
        return -1
    record = ids if isinstance(ids, array) and ids.typecode == "I" else array("I", ids)
    data, needle = record.tobytes(), array("I", [value]).tobytes()
    at = data.find(needle)
    while at > 0 and at % record.itemsize:
        at = data.find(needle, at + 1)
    return at // record.itemsize if at >= 0 else -1


def slide_optimized(lengths: Iterable[int], n: int) -> Iterator[tuple[int, int]]:
    """Greedy whole-context windows of at most n tokens: a window closes when
    the next context would overflow it."""
    start = end = 0
    for length in lengths:
        if end > start and end + length - start > n:
            yield start, end
            start = end
        end += length
    if end > start:
        yield start, end


def slide_standard(
    lengths: Iterable[int], n: int, keep_final_partial: bool = True
) -> Iterator[tuple[int, int]]:
    """Exact partition of the stream into n-token windows; the final
    remainder is kept only when keep_final_partial is set."""
    if n <= 0:
        raise ValueError("window size must be positive")
    total = sum(lengths)
    for start in range(0, total, n):
        end = min(start + n, total)
        if end - start == n or keep_final_partial:
            yield start, end


def slide_optimized_lossy(lengths: Iterable[int], n: int) -> Iterator[tuple[int, int]]:
    """Stride-n raw windows, each cut back to the last context end inside it;
    a raw window holding no context end yields nothing."""
    ends = list(accumulate(lengths))
    for raw in range(0, ends[-1] if ends else 0, n):
        k = bisect_right(ends, raw + n)
        if k and ends[k - 1] > raw:
            yield raw, ends[k - 1]


def cut_windows(
    contexts: Iterable[Sequence[int]], ranges: Iterable[tuple[int, int]]
) -> Iterator[array]:
    """Slice each (start, end) range out of the concatenated contexts, as
    u32 ids. Ranges must ascend without overlap. Once they are done the rest
    of `contexts` is still consumed, so a stream that checks its records runs
    to its end."""
    it = iter(contexts)
    buf = array("I")  # stream tokens [base, base + len(buf))
    base = 0
    for start, end in ranges:
        while base + len(buf) < end:
            buf.extend(next(it))
        yield buf[start - base : end - base]
        del buf[: end - base]
        base = end
    for _ in it:
        pass
