"""Record the hn-relative reference table from the program in this checkout.

    python3 bench/record_reference.py

Runs relative_cohomology_isometric once for every non-trivial subgroup class
of the hn-relative deck, with its canonical generators, and rewrites
bench/reference_relative.json.  The table in the repository was recorded at
the commit that introduced the benchmark; re-record only when an answer is
known to have been wrong.
"""

import json
import os
import sys

import run
import workloads


def main():
    mods = run.load_program()
    grp, cochain = mods["groups"], mods["cochain"]
    table = {}
    for name, gens, n, _copies in workloads.RELATIVE_DECK:
        if not gens:
            continue
        res = cochain.relative_cohomology_isometric(grp.builtin(name), list(gens), n)
        key = workloads.relative_key(name, gens, n)
        table[key] = {"factors": list(res.invariant_factors), "rank": res.free_rank}
        print(key, res, flush=True)
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} entries to {os.path.relpath(workloads.REFERENCE_FILE)}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
