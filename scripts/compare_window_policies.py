#!/usr/bin/env python3
"""Compare the optimized window policy against the fixed-stride baseline.

Packs a synthetic bilingual corpus once, then plans windows over the same
context lengths under both policies (plus the lossy variant) and reports
window counts, fill rates, and how many contexts the baseline cuts
mid-sequence. The optimized policy never cuts a context, at the price of
partially filled windows.

Example:
    python scripts/compare_window_policies.py --pairs 2000 --n-budget 1024
"""

import argparse
import sys
import tempfile
from pathlib import Path

from xlpack.packing import PackConfig, direction_for, pack_pair
from xlpack.sliding import slide_optimized, slide_optimized_lossy, slide_standard
from xlpack.synth import build_corpus
from xlpack.alignment import ArticleStore, join_articles, build_pair_map
from xlpack.dump_ingest import parse_langlinks_dump, parse_pages_dump
from xlpack.tokenization import WhitespaceTokenizer


def summarize(name, ranges, n, total_tokens):
    ranges = list(ranges)
    kept = sum(end - start for start, end in ranges)
    fill = kept / (len(ranges) * n) if ranges else 0.0
    share = kept / total_tokens if total_tokens else 0.0
    print(f"{name:>10}: {len(ranges):6d} windows  fill {fill:6.1%}  "
          f"tokens kept {kept}/{total_tokens} ({share:.1%})")


def count_cut_contexts(lengths, n):
    """Contexts whose tokens land in more than one standard window."""
    cut = 0
    pos = 0
    for length in lengths:
        cut += pos // n != (pos + length - 1) // n
        pos += length
    return cut


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=2000)
    ap.add_argument("--paragraphs", type=int, default=10)
    ap.add_argument("--n-budget", type=int, default=1024)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        corpus = build_corpus(
            Path(tmp), n_pairs=args.pairs, paragraphs_per_side=args.paragraphs,
            seed=args.seed,
        )
        pair_ids = build_pair_map(
            parse_langlinks_dump(corpus.langlinks_l_to_en, "en"),
            parse_pages_dump(corpus.pages_en),
            parse_langlinks_dump(corpus.langlinks_en_to_l, corpus.lang),
            parse_pages_dump(corpus.pages_l),
        )
        tokenizer = WhitespaceTokenizer()
        cfg = PackConfig(n_budget=args.n_budget)
        with ArticleStore(corpus.articles_en, "en") as store_en, \
                ArticleStore(corpus.articles_l, corpus.lang) as store_l:
            pairs = join_articles(pair_ids, store_en, store_l)
            lengths = [ctx.token_len for pair in pairs
                       for ctx in pack_pair(pair, tokenizer, cfg, direction_for(pair.pair, cfg))]
        total = sum(lengths)
        print(f"{len(lengths)} contexts, {total} tokens, budget {args.n_budget}\n")

        for name, planner in (("optimized", slide_optimized), ("standard", slide_standard),
                              ("lossy", slide_optimized_lossy)):
            summarize(name, planner(lengths, args.n_budget), args.n_budget, total)
        cut = count_cut_contexts(lengths, args.n_budget)
        print(f"\nstandard policy cuts {cut}/{len(lengths)} contexts mid-sequence; "
              "the optimized policy cuts none.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
