#!/usr/bin/env python3
"""Generate a synthetic bilingual corpus plus a ready-to-run pipeline config.

Example:
    python scripts/make_synthetic_corpus.py --out /tmp/demo --pairs 500 --web-docs 200
    xlpack all --config /tmp/demo/config.json
"""

import argparse
import json
import sys
from pathlib import Path

from xlpack.synth import build_corpus, write_web_corpus_jsonl


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="directory to create the corpus in")
    ap.add_argument("--pairs", type=int, default=500)
    ap.add_argument("--lang", default="xx")
    ap.add_argument("--paragraphs", type=int, default=8, help="paragraphs per side")
    ap.add_argument("--min-words", type=int, default=4)
    ap.add_argument("--max-words", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-budget", type=int, default=4096)
    ap.add_argument("--web-docs", type=int, default=0,
                    help="also generate a web corpus of this many documents")
    ap.add_argument("--gzip", action="store_true", help="write .sql.gz dumps")
    args = ap.parse_args()

    out = Path(args.out)
    corpus = build_corpus(
        out / "data",
        lang=args.lang,
        n_pairs=args.pairs,
        paragraphs_per_side=args.paragraphs,
        words_per_paragraph=(args.min_words, args.max_words),
        seed=args.seed,
        compress=args.gzip,
    )
    config = {
        "language_l": args.lang,
        "paths": {
            "langlinks_l_to_en": str(corpus.langlinks_l_to_en),
            "langlinks_en_to_l": str(corpus.langlinks_en_to_l),
            "pages_en": str(corpus.pages_en),
            "pages_l": str(corpus.pages_l),
            "articles_en": str(corpus.articles_en.parent),
            "articles_l": str(corpus.articles_l.parent),
            "output_dir": str(out / "out"),
        },
        "tokenizer": {"kind": "whitespace"},
        "pack": {"n_budget": args.n_budget, "direction_policy": "en_first"},
        "slide": {"kind": "optimized", "n_budget": args.n_budget},
        "split": {"validation_fraction": 0.001, "seed": 32},
    }
    if args.web_docs:
        # The mock provider scores 1.0 only for identical texts, and a
        # forward-linked article's query is its English title: doc texts are
        # those titles, so retrieval finds them.
        docs = [(f"web{k:05d}", f"Topic {k % args.pairs}") for k in range(args.web_docs)]
        web_path = write_web_corpus_jsonl(out / "data" / "web.jsonl", docs)
        config["paths"]["web_corpus"] = str(web_path)
        config["retrieval"] = {"provider": "mock", "dim": 32, "threshold": 0.75,
                               "max_results": 3}
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2) + "\n")
    print(f"corpus: {args.pairs} pairs under {out / 'data'}")
    print(f"config: {cfg_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
