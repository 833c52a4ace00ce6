#!/usr/bin/env python3
"""Compare the two Bruhat constructions on small groups and emit DOT graphs.

For each type this prints the sizes of the componentwise order, the
link-filter order and the subword order, and where they differ.  With
--dot-dir it writes one DOT file per construction.
"""

import argparse
import os

from weylipse import (
    bruhat_from_primary,
    bruhat_from_subwords,
    build_cartan,
    build_group_table,
    emit_dot,
    parse_type,
    primary_poset,
)
from weylipse.ordering import relation_counts


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("types", nargs="*", default=["A2", "B2", "G2", "A3", "B3", "D4"])
    ap.add_argument("--dot-dir", default=None)
    args = ap.parse_args()

    for text in args.types:
        cd = build_cartan(parse_type(text))
        table = build_group_table(cd)
        base = primary_poset(table)
        filtered = bruhat_from_primary(table)
        subword = bruhat_from_subwords(table)
        n_filter, n_subword, missing, _ = relation_counts(filtered, subword)
        # each down set holds its own node: |W| bits that are no relation
        comp = sum(mask.bit_count() for mask in base.down_masks()) - table.order
        print(
            f"{text}: |W|={table.order} componentwise={comp} "
            f"link-filter={n_filter} subword={n_subword} "
            f"agree={filtered.covers == subword.covers} filter-missing={missing}"
        )
        if args.dot_dir:
            os.makedirs(args.dot_dir, exist_ok=True)
            for poset in (base, filtered, subword):
                path = os.path.join(args.dot_dir, f"{text}_{poset.kind}.dot")
                with open(path, "w") as fh:
                    fh.write(emit_dot(poset))
                print(f"  wrote {path}")


if __name__ == "__main__":
    main()
