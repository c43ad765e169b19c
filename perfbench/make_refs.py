"""Write reference_digests.json: the sha256 of every output the workload
generators can ask for, so every seed is checked.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/make_refs.py

It covers the CLI stdout bytes of each ``verify`` and ``tabulate``
command and the canonical text of each ``gf-session`` library result.
Every CLI command must exit 0.  Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]
    from run import REFERENCE_FILE
    from workloads import SPACES, digest, prepare_call, render, run_cli

    digests = {}
    for workload, space in SPACES.items():
        t0 = time.perf_counter()
        queries = space()
        for q in queries:
            if q.argv is not None:
                code, text = run_cli(q.argv)
                if code != 0:
                    sys.exit(f"make_refs: {q.key} exited {code}")
            else:
                fn, args = prepare_call(q.call)
                text = render(fn(*args))
            digests[q.key] = digest(text)
        print(f"{workload}: {len(queries)} outputs in {time.perf_counter() - t0:.1f} s",
              file=sys.stderr)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump({"digests": dict(sorted(digests.items()))}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
