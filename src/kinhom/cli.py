"""Command-line front end.

Each subcommand runs the pipeline up to a stage and emits the tables that
exist at that point::

    kinhom check     --config scenario.ini            # gates only
    kinhom cell      --config scenario.ini            # + cell solves
    kinhom effective --config scenario.ini --out out/ # + coefficients
    kinhom macro     --config scenario.ini --out out/ # + limit density
    kinhom kinetic   --config scenario.ini --out out/ # + kinetic runs
    kinhom sweep     --config scenario.ini            # convergence table
    kinhom pipeline  --config scenario.ini --out out/ # everything

``--out DIR`` overrides the scenario's output directory.

Exit status: 0 on success, 1 when a stage fails, 2 on a bad scenario file.
"""

from __future__ import annotations

import argparse
import sys

from kinhom.harness import (
    ConfigError,
    StageError,
    dump_config,
    emit_tables,
    parse_config,
    run_pipeline,
)

FMT = "%.17g"

_STOP = {
    "check": "check",
    "cell": "cell",
    "effective": "effective",
    "macro": "macro",
    "kinetic": None,
    "sweep": None,
    "pipeline": None,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinhom",
        description="homogenization pipeline for kinetic equations with oscillating scattering",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in [
        ("check", "validate the scenario: balance and velocity-span gates, "
                  "and warn on an under-resolved kinetic reference"),
        ("cell", "solve the cell problems (equilibrium and correctors)"),
        ("effective", "compute homogenized diffusion/drift coefficients"),
        ("macro", "integrate the limit diffusion equation"),
        ("kinetic", "run the kinetic reference solver per epsilon"),
        ("sweep", "kinetic-vs-macro error table over the epsilon list"),
        ("pipeline", "run every stage and emit all tables"),
    ]:
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, metavar="PATH", help="scenario file")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (default: the scenario's [output] dir)")
    return parser


def _print_summary(summary: dict) -> None:
    for key, value in summary.items():
        text = FMT % value if isinstance(value, float) else str(value)
        print(f"{key} = {text}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        print(f"error: cannot read scenario file: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command in ("kinetic", "sweep") and cfg.kinetic is None:
        print("error: this command needs a [kinetic] section", file=sys.stderr)
        return 2

    try:
        report = run_pipeline(cfg, stop_after=_STOP[args.command])
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "check":
        print("balance gate: PASS (%s)" % (FMT % report.sdb_gap))
        print("velocity span: %s" % ("PASS" if report.h1_ok else "WARN"))
        print(dump_config(cfg), end="")
        return 0

    _print_summary(report.summary)

    if args.command == "sweep" and report.sweep is not None:
        sweep = report.sweep
        print("epsilon,err,runtime_s,l2_flag")
        for row in sweep.rows:
            print(
                ",".join([FMT % row.epsilon, FMT % row.err, FMT % row.runtime,
                          "yes" if row.l2_flag else "no"])
            )
        verdict = "PASS" if sweep.monotone and sweep.min_ratio >= 1.5 else "FAIL"
        print(f"verdict: monotone={'yes' if sweep.monotone else 'no'} "
              f"min_ratio={FMT % sweep.min_ratio} (gate 1.5): {verdict}")

    out_dir = args.out if args.out is not None else cfg.output["dir"]
    paths = emit_tables(report, out_dir)
    print(f"wrote {len(paths)} tables to {out_dir}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
