"""Print the sha256 of every table the benchmark scenarios emit.

    python3 tools/table_digest.py --seed 1
    python3 tools/table_digest.py --seed 1 --root ../other-checkout

For each scenario of ``perfbench/workloads.py`` this runs ``run_pipeline``
and ``emit_tables`` into a temporary directory, as one benchmark operation
does, and prints one line per emitted table:
``<workload> <table> <sha256>``.  ``sweep.csv`` is hashed without its
``runtime_s`` column, the only timing in the tables, so two checkouts that
compute the same numbers print the same lines.  ``--root`` is the checkout
whose ``src/`` and ``perfbench/`` are imported (default: the one holding this
script); to check that a change leaves the tables byte-identical, run it on
both checkouts and compare:

    diff <(python3 tools/table_digest.py --seed 1) \\
         <(python3 tools/table_digest.py --seed 1 --root ../parent)

BLAS runs single-threaded, as in the benchmark.  Nothing is written outside
the temporary directory.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

TIMING_COLUMNS = {"sweep.csv": "runtime_s"}


def _without_column(text: str, name: str) -> str:
    lines = text.split("\n")
    drop = lines[0].split(",").index(name)
    return "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != drop)
                     for line in lines)


def table_digests(seed: int) -> list[tuple[str, str, str]]:
    """``(workload, table, sha256)`` for every table of every benchmark workload."""
    import workloads
    from kinhom import harness

    out = []
    for name in workloads.NAMES:
        cfg = harness.parse_config(workloads.scenario(name, seed))
        report = harness.run_pipeline(cfg, jobs=1, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            paths = harness.emit_tables(report, tmp)
            for table in sorted(paths):
                with open(paths[table], newline="") as fh:
                    text = fh.read()
                if table in TIMING_COLUMNS:
                    text = _without_column(text, TIMING_COLUMNS[table])
                out.append((name, table, hashlib.sha256(text.encode()).hexdigest()))
    return out


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--root", default=here, help="checkout to import (default: this one)")
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    for name, table, digest in table_digests(args.seed):
        print(f"{name} {table} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
