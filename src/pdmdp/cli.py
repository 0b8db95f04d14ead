"""Command-line front end.

Subcommands: solve-exact, run, figures, gen-instance.
Exit codes: 0 success, 2 validation failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from . import bench
from .core import DmdpError, save_instance
from .exact import DEFAULT_TOLERANCE, value_iteration

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def _cmd_solve_exact(args) -> int:
    instance, _, _, _ = bench.resolve_instance(args.instance)
    solution = value_iteration(instance, args.tolerance)
    labels = bench.PRESET_ACTION_LABELS.get(args.instance)
    print("optimal value:", " ".join(f"{x:.10g}" for x in solution.optimal_value))
    actions = []
    for state in range(instance.num_states):
        dist = solution.optimal_policy.action_distribution(instance, state)
        best = int(dist.argmax())
        actions.append(labels[state][best] if labels else str(best))
    print("optimal actions:", " ".join(actions))
    print(f"bellman residual: {solution.residual:.3e}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = bench.load_config(args.config)
    rows = bench.execute(config, threads=args.threads)
    out = args.out or config.raw.get("out")
    if not out:
        raise DmdpError("no output path: pass --out or set 'out' in the config")
    bench.write_csv(out, config, rows)
    print(f"wrote {len(rows)} trace rows to {out}")
    return EXIT_OK


def _cmd_figures(args) -> int:
    written = bench.write_series_files(args.csv, args.out)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_gen_instance(args) -> int:
    instance, _, inaccurate, _ = bench.resolve_instance(args.preset)
    prediction = bench.resolve_prediction(args.prediction or "none", instance, inaccurate)
    save_instance(args.out, instance, prediction)
    print(f"wrote {args.out}")
    return EXIT_OK


class Parser(argparse.ArgumentParser):
    """A usage error is a validation error: one 'error: ...' line, exit 2."""

    def error(self, message):  # repr escapes newlines in unrecognized arguments
        raise DmdpError(f"{self.prog}: {repr(message)[1:-1]}")


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="pdmdp",
        description="Primal-dual DMDP solver and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-exact", help="value-iterate an instance to optimality")
    p.add_argument("instance", help="preset name or instance JSON path")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.set_defaults(func=_cmd_solve_exact)

    p = sub.add_parser("run", help="run a configured experiment grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("figures", help="aggregate a trace CSV into plot series")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("gen-instance", help="write a preset instance to JSON")
    p.add_argument("--preset", choices=sorted(bench.PRESETS), required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--prediction", choices=["accurate", "inaccurate"], default=None
    )
    p.set_defaults(func=_cmd_gen_instance)
    return parser


def guarded(command) -> int:
    """command()'s exit code; a ValueError exits 2, an OSError 3, each with one stderr line."""
    try:
        return command()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main(argv=None) -> int:
    def command():
        args = build_parser().parse_args(argv)
        return args.func(args)

    return guarded(command)


if __name__ == "__main__":
    sys.exit(main())
