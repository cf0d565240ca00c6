"""Independent reference implementations used as test oracles.

These deliberately avoid the library's incremental/streaming code paths:
costs are recomputed from fully rendered strings, windows from a positional
simulation over the concatenated stream, searches from a plain scan, and
embeddings are normalized one vector at a time.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np

from xlpack.web import EmbeddingError

_ESCAPE = re.compile(r"\\(.)")
_ESCAPE_TABLE = {
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


def reference_unescape_sql(raw: str) -> str:
    """Resolve MySQL string-literal escapes over the raw (quoted-inner) bytes."""
    return _ESCAPE.sub(lambda m: _ESCAPE_TABLE.get(m.group(1), m.group(1)), raw)


def render_segments(segments: list[tuple[str, str, str]], split_text: str) -> str:
    return "".join(text + "\n\n" for _, _, text in segments) + split_text


def reference_pack_pair(pair, tokenizer, cfg, direction):
    """Greedy schedule with every cost taken from a full re-render and recount.

    Returns a list of (segments, token_len) where segments are
    (lang, kind, text) triples, for comparison against the packer's output.
    """
    split_text = tokenizer.split_token_text

    def paras(text):
        return [p.strip() for p in text.split("\n\n") if p.strip()]

    sides = {
        "en": (pair.title_en.strip(), paras(pair.text_en), "en"),
        "l": (pair.title_l.strip(), paras(pair.text_l), pair.lang_l),
    }
    if direction == "en_first":
        (t1, a, lang1), (t2, b, lang2) = sides["en"], sides["l"]
    else:
        (t1, a, lang1), (t2, b, lang2) = sides["l"], sides["en"]
    if not a or not b:
        return []

    def cost_of(segs):
        return tokenizer.count(render_segments(segs, split_text))

    out = []

    def assemble(fs, ss, with_titles):
        segs = []
        if with_titles:
            segs.append((lang1, "title", t1))
        segs.extend(fs)
        if with_titles:
            segs.append((lang2, "title", t2))
        segs.extend(ss)
        return segs

    def emit_single(lang, text, to_first):
        with_titles = cfg.repeat_titles or not out
        extra = [(lang, "paragraph", text)]
        segs = assemble(extra if to_first else [], [] if to_first else extra, with_titles)
        if cost_of(segs) <= cfg.n_budget:
            out.append((segs, cost_of(segs)))
            return
        if not cfg.truncate_oversize:
            return
        # Room for the text, its trailing delimiter and the split token.
        keep = cfg.n_budget - 1 - tokenizer.count("\n\n")
        short = tokenizer.truncate_to_tokens(text, keep)
        segs = [(lang, "paragraph", short)]
        out.append((segs, cost_of(segs)))

    i = j = 0
    na, nb = len(a), len(b)
    while i < na or j < nb:
        with_titles = cfg.repeat_titles or not out
        fs: list[tuple[str, str, str]] = []
        ss: list[tuple[str, str, str]] = []
        placed = 0
        while i < na and j < nb:
            cand_f = fs + [(lang1, "paragraph", a[i])]
            cand_s = ss + [(lang2, "paragraph", b[j])]
            if cost_of(assemble(cand_f, cand_s, with_titles)) > cfg.n_budget:
                break
            fs, ss = cand_f, cand_s
            i += 1
            j += 1
            placed += 2
        if i >= na:
            while j < nb:
                cand_s = ss + [(lang2, "paragraph", b[j])]
                if cost_of(assemble(fs, cand_s, with_titles)) > cfg.n_budget:
                    break
                ss = cand_s
                j += 1
                placed += 1
        elif j >= nb:
            while i < na:
                cand_f = fs + [(lang1, "paragraph", a[i])]
                if cost_of(assemble(cand_f, ss, with_titles)) > cfg.n_budget:
                    break
                fs = cand_f
                i += 1
                placed += 1
        if placed:
            segs = assemble(fs, ss, with_titles)
            out.append((segs, cost_of(segs)))
            continue
        if i < na and j < nb:
            emit_single(lang1, a[i], True)
            i += 1
            emit_single(lang2, b[j], False)
            j += 1
        elif i < na:
            emit_single(lang1, a[i], True)
            i += 1
        else:
            emit_single(lang2, b[j], False)
            j += 1
    return out


def reference_slide_optimized(id_lists, n, split_id=0):
    """Positional simulation: raw n-token spans, retreat to the last split."""
    stream = [t for ids in id_lists for t in ids]
    out = []
    s = 0
    while s < len(stream):
        end = min(s + n, len(stream))
        p = max(k for k in range(s, end) if stream[k] == split_id)
        out.append(stream[s : p + 1])
        s = p + 1
    return out


def reference_slide_standard(id_lists, n, keep_final_partial=True):
    stream = [t for ids in id_lists for t in ids]
    out = [stream[s : s + n] for s in range(0, len(stream), n)]
    if out and len(out[-1]) < n and not keep_final_partial:
        out.pop()
    return out


def reference_slide_lossy(id_lists, n, split_id=0):
    """Stride-n raw chunks of the stream, each cut after its last split id;
    a chunk without one is skipped."""
    stream = [t for ids in id_lists for t in ids]
    out = []
    for s in range(0, len(stream), n):
        chunk = stream[s : s + n]
        splits = [k for k, t in enumerate(chunk) if t == split_id]
        if splits:
            out.append(chunk[: splits[-1] + 1])
    return out


def reference_search(docs, query, k):
    """Brute-force cosine scan: docs is a list of (doc_id, unit vector)."""
    scored = []
    for doc_id, vec in docs:
        score = sum(float(x) * float(q) for x, q in zip(vec, query))
        scored.append((doc_id, score))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def reference_unit_vector(vec, label, tolerance=1e-6):
    """One embedding normalized on its own, by np.linalg.norm: a vector within
    `tolerance` of unit norm is kept as it is, a zero vector raises."""
    vec = np.asarray(vec, dtype=np.float64)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise EmbeddingError(f"zero-norm embedding for {label}")
    if abs(norm - 1.0) > tolerance:
        vec = vec / norm
    return vec


def reference_keyword_frequencies(text, title_map):
    """Frequency counter over [[link]] targets that map to English."""
    counts: Counter[str] = Counter()
    first: dict[str, int] = {}
    for pos, m in enumerate(re.finditer(r"\[\[([^\[\]|]+)(?:\|[^\[\]]*)?\]\]", text)):
        target = m.group(1).replace("_", " ").strip()
        if target in title_map:
            kw = title_map[target]
            counts[kw] += 1
            first.setdefault(kw, pos)
    return sorted(counts, key=lambda kw: (-counts[kw], first[kw]))
