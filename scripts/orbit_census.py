#!/usr/bin/env python3
"""Orbit census across the catalog: number of orbits per type, orbit sizes,
and the share of nonnegative solutions whose candidate minimum is integral.

The time column is one `orbit_seeds` call (census, seeds and orbit sizes); the
raw-solution column comes from a separate, untimed census.

Run e.g.:  python scripts/orbit_census.py A4 B4 C4 D5 F4 E6 E7 E8
"""

import argparse
import time

from weylipse import build_cartan, enumerate_secondary_nonneg, orbit_seeds, parse_type, weyl_order

DEFAULT_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2", "F4", "E6", "E7", "E8"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("types", nargs="*", default=DEFAULT_TYPES)
    args = ap.parse_args()

    print(f"{'type':>8} {'|W|':>12} {'raw h>=0':>9} {'orbits':>7} {'time':>8}  sizes")
    for text in args.types:
        cd = build_cartan(parse_type(text))
        t0 = time.perf_counter()
        seeds = orbit_seeds(cd)
        dt = time.perf_counter() - t0
        raw = enumerate_secondary_nonneg(cd)
        sizes = sorted({r.size for r in seeds})
        shown = ", ".join(map(str, sizes[:6])) + (", ..." if len(sizes) > 6 else "")
        print(
            f"{text:>8} {weyl_order(cd):>12} {len(raw):>9} {len(seeds):>7} {dt:>7.2f}s  {shown}"
        )


if __name__ == "__main__":
    main()
