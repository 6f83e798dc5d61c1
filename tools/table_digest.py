"""Print the sha256 of every table the benchmark scenarios emit.

    python3 tools/table_digest.py --seed 1
    python3 tools/table_digest.py --seed 1 --root ../parent

For each scenario of ``perfbench/workloads.py`` this runs ``run_pipeline``
and ``emit_tables`` into a temporary directory, as one benchmark operation
does, and prints one line per emitted table:
``<workload> <table> <sha256>``.  ``sweep.csv`` is hashed without its
``runtime_s`` column, the only timing in the tables, so two checkouts that
compute the same numbers print the same lines.

``--root`` names a second checkout to compare this one against.  Each line
then ends in ``same`` or ``differs``; under a table that differs, one
indented line per numeric column (per key of ``summary.txt``) gives the
largest absolute difference, and that difference over the largest
magnitude of the column at ``--root`` (the relative difference), so a
change that moves a table at roundoff shows as such.  The last line gives
the largest absolute difference over every numeric column of every table,
with its workload, table and column: one bound for the whole comparison.
Values that do not parse as numbers and rows or keys present on one side
only are named as such.  Under a table that is not numeric, such as
``config.ini``, each line present on one side only is printed as
``- line`` (at ``--root``) or ``+ line`` (in this checkout).

Each checkout runs in its own process, which imports that checkout's
``src/`` and ``perfbench/``.  BLAS runs single-threaded, as in the
benchmark.  Nothing is written outside the temporary directory.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import difflib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

TIMING_COLUMNS = {"sweep.csv": "runtime_s"}


def _without_column(text: str, name: str) -> str:
    lines = text.split("\n")
    drop = lines[0].split(",").index(name)
    return "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != drop)
                     for line in lines)


def emit_all(root: str, seed: int, out_dir: str) -> None:
    """Emit the tables of every workload of checkout ``root`` into ``out_dir/<workload>``."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from kinhom import harness

    for name in workloads.NAMES:
        cfg = harness.parse_config(workloads.scenario(name, seed))
        report = harness.run_pipeline(cfg, seed=seed)
        harness.emit_tables(report, os.path.join(out_dir, name))


def _emit_in_process(root: str, seed: int, out_dir: str) -> None:
    proc = multiprocessing.get_context("spawn").Process(target=emit_all, args=(root, seed, out_dir))
    proc.start()
    proc.join()
    if proc.exitcode != 0:
        raise SystemExit(f"emitting the tables of {root} failed (exit code {proc.exitcode})")


def _read_tables(out_dir: str) -> dict[tuple[str, str], str]:
    """``{(workload, table): text}`` with timing columns removed."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        for table in sorted(os.listdir(os.path.join(out_dir, name))):
            with open(os.path.join(out_dir, name, table), newline="") as fh:
                text = fh.read()
            if table in TIMING_COLUMNS:
                text = _without_column(text, TIMING_COLUMNS[table])
            out[(name, table)] = text
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _columns(table: str, text: str) -> dict[str, list[str]]:
    """Named value lists: CSV columns, or one single-value list per summary key."""
    if table == "summary.txt":
        pairs = (line.partition(" = ") for line in text.splitlines())
        return {key: [value] for key, _, value in pairs}
    rows = list(csv.reader(io.StringIO(text)))
    return {h: [r[i] for r in rows[1:]] for i, h in enumerate(rows[0])}


def _numbers(values: list[str]) -> list[float] | None:
    try:
        return [float(v) for v in values]
    except ValueError:
        return None


def _max_abs_diff(a: list[float], b: list[float]) -> float:
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def _is_numeric_table(table: str) -> bool:
    return table.endswith((".csv", "summary.txt"))


def compare(table: str, new: str, old: str) -> list[str]:
    """One line per column (or summary key) of two versions of a table.

    A table that is not numeric gives its lines present on one side only,
    ``- line`` for ``old`` and ``+ line`` for ``new``.
    """
    if not _is_numeric_table(table):
        return [line for line in difflib.ndiff(old.splitlines(), new.splitlines())
                if line.startswith(("- ", "+ "))]
    new_cols, old_cols = _columns(table, new), _columns(table, old)
    lines = []
    for name in list(old_cols) + [c for c in new_cols if c not in old_cols]:
        if name not in new_cols or name not in old_cols:
            side = "--root" if name in old_cols else "this checkout"
            lines.append(f"{name}: only in {side}")
            continue
        a, b = _numbers(new_cols[name]), _numbers(old_cols[name])
        if a is None or b is None:
            same = new_cols[name] == old_cols[name]
            lines.append(f"{name}: not numeric, {'same' if same else 'differs'}")
        elif len(a) != len(b):
            lines.append(f"{name}: {len(a)} values, --root has {len(b)}")
        else:
            diff = _max_abs_diff(a, b)
            scale = max((abs(y) for y in b), default=0.0)
            rel = diff / scale if scale else (0.0 if diff == 0 else math.inf)
            lines.append(f"{name}: max abs diff {diff:.3e}, max rel diff {rel:.3e}")
    return lines


def largest_difference(new: dict, old: dict) -> str:
    """The largest absolute difference over the numeric columns both sides share.

    ``new`` and ``old`` map ``(workload, table)`` to table text; columns
    whose values do not all parse as numbers, or whose lengths differ, are
    left out (``compare`` names them).
    """
    best = None
    for key in sorted(set(new) & set(old)):
        if not _is_numeric_table(key[1]):
            continue
        new_cols, old_cols = _columns(key[1], new[key]), _columns(key[1], old[key])
        for name in (c for c in old_cols if c in new_cols):
            a, b = _numbers(new_cols[name]), _numbers(old_cols[name])
            if a is None or b is None or len(a) != len(b):
                continue
            diff = _max_abs_diff(a, b)
            if best is None or diff > best[0]:
                best = (diff, *key, name)
    if best is None:
        return "largest numeric difference: no numeric column on both sides"
    diff, workload, table, column = best
    return f"largest numeric difference: {diff:.3e} in {workload} {table} column {column}"


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--root", default=None, help="checkout to compare this one against")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        _emit_in_process(here, args.seed, os.path.join(tmp, "new"))
        new = _read_tables(os.path.join(tmp, "new"))
        old = None
        if args.root is not None:
            _emit_in_process(os.path.abspath(args.root), args.seed, os.path.join(tmp, "old"))
            old = _read_tables(os.path.join(tmp, "old"))
    for (name, table), text in new.items():
        line = f"{name} {table} {_digest(text)}"
        if old is None:
            print(line)
        elif (name, table) not in old:
            print(f"{line} only in this checkout")
        elif old[(name, table)] == text:
            print(f"{line} same")
        else:
            print(f"{line} differs")
            for detail in compare(table, text, old[(name, table)]):
                print(f"    {detail}")
    for name, table in sorted(set(old or {}) - set(new)):
        print(f"{name} {table} only in --root")
    if old is not None:
        print(largest_difference(new, old))
    return 0


if __name__ == "__main__":
    sys.exit(main())
