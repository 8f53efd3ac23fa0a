"""Run the gradient check over a range of seeds and list every failing case.

    python3 tools/gradcheck_scan.py [CHECKOUT] --seeds A-B

CHECKOUT is a source tree holding ``src/meshmotion`` (default: this one); its
package is imported, so two checkouts can be scanned alike. For each seed
from A to B inclusive the script runs that checkout's ``cli.run_gradcheck``
and prints one ``seed=<n> <case> max_rel_err=<err>`` line per case above
the tolerance, then a summary line. ``meshmotion gradcheck --seed N`` runs
one seed of the same checks with the full report.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def seed_range(text):
    lo, sep, hi = text.partition("-")
    try:
        first, last = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(first, last + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parent.parent,
                        type=Path)
    parser.add_argument("--seeds", type=seed_range, required=True, help="inclusive range A-B")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout / "src"))
    from meshmotion import cli

    failed_seeds = 0
    for seed in args.seeds:
        _, rows = cli.run_gradcheck(seed=seed)
        failures = [(name, err) for name, err, passed in rows if not passed]
        for name, err in failures:
            print(f"seed={seed} {name} max_rel_err={err:.3e}", flush=True)
        failed_seeds += bool(failures)
    print(f"{failed_seeds} of {len(args.seeds)} seeds failed "
          f"(seeds {args.seeds.start}-{args.seeds.stop - 1})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
