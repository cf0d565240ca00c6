#!/usr/bin/env python3
"""Compare the window policies over the contexts of a run that has packed.

Reads the run's context index (contexts.jsonl, left by `xlpack all` or
`xlpack pack`), splits it as slide does, and plans each split's windows under
the optimized, standard and lossy policies with the config's slide settings:
each count is the window_count slide writes under that slide.kind. Also
reports fill rates and the contexts that standard cuts mid-sequence; optimized
never cuts one, at the price of partially filled windows.

Example:
    xlpack all --config config.json
    python scripts/compare_window_policies.py --config config.json
"""

import argparse
import sys
from dataclasses import replace

from xlpack.config import ConfigError, InputError, validate_config
from xlpack.export import validation_set
from xlpack.pipeline import CONTEXTS_NAME, SPLITS, plan_windows, read_contexts_jsonl


def count_cut_contexts(lengths, n):
    """Contexts whose tokens land in more than one standard window."""
    cut = 0
    pos = 0
    for length in lengths:
        cut += pos // n != (pos + length - 1) // n
        pos += length
    return cut


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", required=True, help="the JSON config of a run that has packed")
    try:
        cfg = validate_config(ap.parse_args().config)
        index = cfg.output_dir / CONTEXTS_NAME
        entries = read_contexts_jsonl(index)
    except ConfigError as e:
        sys.exit("\n".join(f"config error: {diag}" for diag in e.diagnostics))
    except FileNotFoundError:
        print(f"input error: {index}: not found; run pack first", file=sys.stderr)
        return 2
    except (InputError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2

    validation = validation_set(len(entries), cfg.split)
    n = cfg.slide.n_budget
    print(f"{len(entries)} contexts in {index}, budget {n}, "
          f"keep_final_partial {cfg.slide.keep_final_partial}")
    for split in SPLITS:
        lengths = [e.token_len for i, e in enumerate(entries)
                   if (i in validation) == (split == "validation")]
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
