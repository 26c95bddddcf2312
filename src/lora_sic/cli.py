"""Command-line front end: config ingestion, subcommands, stable CSV output."""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys
from collections.abc import Iterable, Sequence

from .analytic import CoverageBreakdown, coverage, single_interferer_given_collision
from .experiments import (
    SWEEP_VARIABLES,
    SweepSpec,
    _d1_or_edge,
    capacity_table,
    find_alpha_for_target,
    resolve_intensity,
    sweep,
)
from .params import DEFAULT_SEED, NetworkConfig, SfParams, default_sf_table
from .specfun import ConvergenceError

class UsageError(Exception):
    """Bad command line; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        # The text argparse itself prints when type=float fails.
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _set_value(values: dict[str, float], key: str, raw_value: str, where: str) -> None:
    if key not in NetworkConfig._fields:
        raise ValueError(f"unknown config key: {key!r}")
    try:
        value = float(raw_value.strip())
    except ValueError:
        raise ValueError(
            f"config key {key!r} expects a number, got {raw_value.strip()!r} ({where})"
        ) from None
    if not math.isfinite(value):
        raise ValueError(
            f"config key {key!r} must be finite, got {raw_value.strip()!r} ({where})"
        )
    values[key] = value


def _parse_values(text: str) -> dict[str, float]:
    # Only the keys the text names: NetworkConfig supplies the other defaults.
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        _set_value(values, key.strip(), value, f"line {lineno}")
    return values


def parse_config(text: str) -> NetworkConfig:
    """Build a scenario from a flat ``key = value`` document.

    Lines are ``key = value`` pairs, ``#`` starts a comment, blank lines are
    ignored.  Omitted keys take the suburban reference defaults (3000 m cell,
    six equal rings, 1% duty cycle, 1 dB capture threshold).  Unknown keys,
    non-numeric values and invariant violations raise ``ValueError`` naming
    the offending key.
    """
    return NetworkConfig(**_parse_values(text))


#: A command's result: its CSV header, its rows (tuples of cells in header
#: order) and its exit status.
_Table = tuple[Sequence[str], Iterable[tuple], int]

#: How the CSV prints a float, and how ``capacity`` and ``plan`` round the
#: alpha they count nodes from.
_FLOAT_CELL = "%.10g"


def _cell_format(value: object) -> str:
    if isinstance(value, str):
        return "%s"
    if isinstance(value, int):  # bool included: True prints as 1
        return "%d"
    return _FLOAT_CELL


def _write_csv(out: io.TextIOBase, header: Sequence[str], rows: Iterable[tuple]) -> None:
    # Every table has a row, and every column holds one type in every row,
    # so one template built from the first row formats the whole table.
    out.write(",".join(header) + "\n")
    rows = iter(rows)
    first = next(rows)
    template = ",".join(map(_cell_format, first)) + "\n"
    out.write(template % first)
    out.writelines(template % row for row in rows)


_NODE_COLUMNS = [f"n_sf{row.sf}" for row in default_sf_table()] + ["total"]


def _cmd_table1(cfg: NetworkConfig, args: argparse.Namespace) -> _Table:
    return SfParams._fields, default_sf_table(), 0


def _cmd_coverage(cfg: NetworkConfig, args: argparse.Namespace) -> _Table:
    d1 = args.d1 + 0.0  # -0 becomes 0, as on a sweep's grid, so a refusal names 0.0
    point = coverage(d1, cfg, resolve_intensity(cfg, d1, args.alpha, args.nbar))
    return ["x", *CoverageBreakdown._fields], [(d1, *point)], 0


def _cmd_sweep(cfg: NetworkConfig, args: argparse.Namespace) -> _Table:
    spec = SweepSpec(**{name: getattr(args, name) for name in SweepSpec._fields})
    points = sweep(spec, cfg)  # not lazily: an error must come before --output is opened
    header = ["x", *CoverageBreakdown._fields]
    if spec.mc_trials == 0:
        return header, ((r.x, *r.point) for r in points), 0
    rows = (
        (r.x, *r.point, r.mc.success_c1.mean, r.mc.success_c1.ci95_halfwidth,
         r.mc.success_c1_sic.mean, r.mc.success_c1_sic.ci95_halfwidth)
        for r in points
    )
    return [*header, "mc_c1", "mc_c1_ci95", "mc_c1_sic", "mc_c1_sic_ci95"], rows, 0


def _cmd_mc(cfg: NetworkConfig, args: argparse.Namespace) -> _Table:
    from . import mcsim

    alpha = resolve_intensity(cfg, args.d1, args.alpha, args.nbar)
    report = mcsim.estimate(args.d1, cfg, alpha, args.trials, seed=args.seed)
    rows = [(name, *est) for name, est in vars(report).items()]
    return ["outcome", *mcsim.McEstimate._fields], rows, 0


def validation_checks(
    cfg: NetworkConfig, trials: int, seed: int
) -> list[tuple[str, float, float, float, float, float, bool]]:
    """Analytic-vs-MC checks at loads 0.25, 0.5 and 1 in three places: ring 1
    at 4/5 of its width, ring 4 at 2/5, and the cell edge.

    Returns (check, d1, alpha, analytic, mc, limit, ok) tuples, where limit
    is max(4 CI half-widths, slack).  Marginals must match within 4 CI (they
    are exact under the model); the joint SIC success within max(4 CI, 0.02)
    because the closed form carries independence approximations; the plain
    joint success, a one-sided check, may exceed but not undershoot the
    analytic product by more than 4 CI.
    """
    from . import mcsim

    checks = []
    width = cfg.boundaries[1]
    for point_index, d1 in enumerate((4 * width / 5, 17 * width / 5, cfg.radius_m)):
        for alpha in (0.25, 0.5, 1.0):
            report = mcsim.estimate(
                d1, cfg, alpha, trials, seed=mcsim.derive_seed(seed, point_index * 101 + int(alpha * 100))
            )
            breakdown = coverage(d1, cfg, alpha)
            for name, analytic_value, est, slack, one_sided in (
                ("connected_marginal", breakdown.h1, report.connected, 0.0, False),
                ("captured_marginal", breakdown.q1, report.captured, 0.0, False),
                ("joint_sic", breakdown.c1_sic, report.success_c1_sic, 0.02, False),
                (
                    "singles_given_collision",
                    single_interferer_given_collision(alpha),
                    report.single_interferer_given_collision,
                    0.0,
                    False,
                ),
                ("joint_c1_lower_bound", breakdown.c1, report.success_c1, 0.0, True),
            ):
                limit = max(4.0 * est.ci95_halfwidth, slack)
                shortfall = analytic_value - est.mean
                ok = (shortfall if one_sided else abs(shortfall)) <= limit
                checks.append((name, d1, alpha, analytic_value, est.mean, limit, ok))
    return checks


def _cmd_validate(cfg: NetworkConfig, args: argparse.Namespace) -> _Table:
    rows, passed, worst = [], 0, 0.0
    for name, d1, alpha, ref, got, limit, ok in validation_checks(cfg, args.trials, args.seed):
        rows.append((name, d1, alpha, ref, got, limit, "pass" if ok else "FAIL"))
        passed += ok
        worst = max(worst, abs(got - ref))
    print(
        f"validate: {passed}/{len(rows)} checks passed, max abs deviation {worst:.6f}",
        file=sys.stderr,
    )
    header = ["check", "d1", "alpha", "analytic", "mc", "limit", "status"]
    return header, rows, 0 if passed == len(rows) else 2


def _cmd_capacity(cfg: NetworkConfig, args: argparse.Namespace) -> _Table:
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    except ValueError:
        raise UsageError(f"--alphas expects comma-separated numbers, got {args.alphas!r}")
    if not all(math.isfinite(a) for a in alphas):
        raise UsageError(f"--alphas entries must be finite, got {args.alphas!r}")
    if not alphas:
        raise UsageError("--alphas must name at least one intensity")
    return ["alpha", *_NODE_COLUMNS], _node_rows(alphas), 0


def _node_rows(alphas: list[float]) -> list[tuple]:
    """``(alpha, n_sf7, ..., n_sf12, total)`` rows counted from each alpha as
    the CSV prints it, so that a reader who rounds the printed alpha/(2 duty)
    half up gets the printed counts."""
    printed = []
    for alpha in alphas:
        text = _FLOAT_CELL % alpha
        if math.isinf(float(text)):
            raise ValueError(f"alpha={alpha!r} prints as {text}, beyond the largest float")
        printed.append(float(text))
    return [(r.alpha, *r.nodes, r.total) for r in capacity_table(printed, default_sf_table())]


def _cmd_plan(cfg: NetworkConfig, args: argparse.Namespace) -> _Table:
    alpha_star = find_alpha_for_target(args.target, _d1_or_edge(args.d1, cfg), cfg, with_sic=args.sic)
    # capacity_table refuses alpha = 0, the answer when only a silent network meets the target.
    nodes = _node_rows([alpha_star])[0] if alpha_star > 0 else (0.0,) + (0,) * 7
    header = ["target", "with_sic", "alpha_star", *_NODE_COLUMNS]
    return header, [(args.target, args.sic, alpha_star, *nodes[1:])], 0


@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: parse_args returns a fresh Namespace each time,
    # and --set's append action copies its default list before adding to it.
    parser = _Parser(
        prog="lora-sic",
        description="Coverage probabilities for LoRa uplinks with SIC at the gateway.",
    )
    parser.add_argument("--config", help="path to a key = value scenario file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    parser.add_argument("--output", help="write CSV here instead of standard output")
    sub = parser.add_subparsers(dest="command", required=True)
    d1_help = "reference distance in m (default: the cell edge, radius_m)"

    p = sub.add_parser("table1", help="print the per-SF uplink characteristics")
    p.set_defaults(run=_cmd_table1)

    def _pinning(sub_parser: argparse.ArgumentParser) -> None:
        group = sub_parser.add_mutually_exclusive_group()
        group.add_argument("--alpha", type=_finite_float)
        group.add_argument("--nbar", type=_finite_float)

    p = sub.add_parser("coverage", help="probability breakdown at one distance")
    p.set_defaults(run=_cmd_coverage)
    p.add_argument("--d1", type=_finite_float, required=True)
    _pinning(p)

    p = sub.add_parser("sweep", help="grid sweep of the breakdown")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--var", dest="variable", choices=SWEEP_VARIABLES, required=True)
    p.add_argument("--start", type=_finite_float, required=True)
    p.add_argument("--stop", type=_finite_float, required=True)
    p.add_argument("--step", type=_finite_float, required=True)
    p.add_argument("--d1", type=_finite_float, help=d1_help)
    _pinning(p)
    p.add_argument("--mc-trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("mc", help="Monte Carlo estimates at one operating point")
    p.set_defaults(run=_cmd_mc)
    p.add_argument("--d1", type=_finite_float, required=True)
    _pinning(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("validate", help="analytic-vs-MC agreement report")
    p.set_defaults(run=_cmd_validate)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("capacity", help="node counts per SF at given intensities")
    p.set_defaults(run=_cmd_capacity)
    p.add_argument("--alphas", required=True, help="comma-separated intensities")

    p = sub.add_parser("plan", help="largest intensity meeting a coverage target")
    p.set_defaults(run=_cmd_plan)
    p.add_argument("--target", type=_finite_float, required=True)
    p.add_argument("--sic", action="store_true")
    p.add_argument("--d1", type=_finite_float, help=d1_help)

    return parser


def _load_config(args: argparse.Namespace) -> NetworkConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            values = _parse_values(fh.read())
    else:
        values = {}
    for pair in args.overrides:
        if "=" not in pair:
            raise UsageError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        _set_value(values, key.strip(), value, "--set override")
    return NetworkConfig(**values)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        header, rows, status = args.run(cfg, args)
        # Opened only once the command has its table, so a refused command
        # leaves an existing file as it was.
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as out:
                _write_csv(out, header, rows)
        else:
            _write_csv(sys.stdout, header, rows)
        return status
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (
        ValueError, ArithmeticError, ConvergenceError,
        OSError,  # an unreadable --config or unwritable --output; the message names the path
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
