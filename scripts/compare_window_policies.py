#!/usr/bin/env python3
"""Compare the window policies over the contexts of a run that has packed.

Reads the run's context index (contexts.jsonl, left by `xlpack all` or
`xlpack pack`), splits it as slide does (export.split_names), and plans each
split's windows under the optimized, standard and lossy policies with the
config's slide settings: each count is the window_count slide writes under
that slide.kind. Also reports fill rates and the contexts that standard cuts
mid-sequence; optimized never cuts one, at the price of partially filled
windows.

Takes the CLI's --config, --seed and --set, so pass the ones the run was made
with; exits 1 on a config error and 2 on an input error, as the CLI does.

Example:
    xlpack all --config config.json --seed 5
    python scripts/compare_window_policies.py --config config.json --seed 5
"""

import argparse
import sys
from dataclasses import replace

from xlpack.cli import config_options, load_config, refuse
from xlpack.config import ConfigError, InputError
from xlpack.export import split_names
from xlpack.pipeline import CONTEXTS_NAME, SPLITS, plan_windows, read_contexts_jsonl, require


def count_cut_contexts(lengths, n):
    """Contexts whose tokens land in more than one standard window."""
    cut = 0
    pos = 0
    for length in lengths:
        cut += pos // n != (pos + length - 1) // n
        pos += length
    return cut


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, parents=[config_options()],
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    try:
        cfg = load_config(ap.parse_args())
        require(cfg, (CONTEXTS_NAME,))
        index = cfg.output_dir / CONTEXTS_NAME
        entries = read_contexts_jsonl(index)
    except (ConfigError, InputError, FileNotFoundError, ValueError) as e:
        return refuse(e)

    splits = split_names(len(entries), cfg.split)
    n = cfg.slide.n_budget
    print(f"{len(entries)} contexts in {index}, budget {n}, "
          f"keep_final_partial {cfg.slide.keep_final_partial}")
    for split in SPLITS:
        lengths = [e.token_len for e, s in zip(entries, splits) if s == split]
        total = sum(lengths)
        print(f"\n{split}: {len(lengths)} contexts, {total} tokens")
        for kind in ("optimized", "standard", "lossy"):
            ranges = list(plan_windows(lengths, replace(cfg.slide, kind=kind)))
            kept = sum(end - start for start, end in ranges)
            fill = kept / (len(ranges) * n) if ranges else 0.0
            print(f"{kind:>11}: {len(ranges):6d} windows  fill {fill:6.1%}  "
                  f"tokens kept {kept}/{total} ({kept / total if total else 0.0:.1%})")
        print(f"  standard cuts {count_cut_contexts(lengths, n)}/{len(lengths)} contexts "
              "mid-sequence; optimized cuts none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
