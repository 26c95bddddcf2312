"""Command-line front end: config ingestion, subcommands, stable CSV output."""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from dataclasses import fields
from typing import IO, Sequence

from .analytic import (
    NetworkConfig,
    coverage,
    default_config,
    single_interferer_given_collision,
)
from .experiments import (
    CapacityRow,
    InfeasibleTargetError,
    SweepSpec,
    capacity_table,
    find_alpha_for_target,
    resolve_intensity,
    sweep,
)
from .geometry import OutOfCoverageError
from .params import DEFAULT_SEED, RadioConfig
from .specfun import ConvergenceError

#: Grid for the analytic-vs-MC validation report: three rings, three loads.
VALIDATE_D1 = (400.0, 1700.0, 3000.0)
VALIDATE_ALPHA = (0.25, 0.5, 1.0)

#: Config keys named differently from their ``default_config`` argument.
_CONFIG_ARGS = {"gamma_db": "capture_threshold_db"}
_ARG_KEYS = {arg: key for key, arg in _CONFIG_ARGS.items()}

# Every config key with its default: the scenario arguments of default_config
# plus the RadioConfig fields it forwards.
_CONFIG_DEFAULTS: dict[str, float] = {
    **{
        name: param.default
        for name, param in inspect.signature(default_config).parameters.items()
        if param.default is not param.empty
    },
    **{_ARG_KEYS.get(f.name, f.name): f.default for f in fields(RadioConfig)},
}


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
    if key not in _CONFIG_DEFAULTS:
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
    values = dict(_CONFIG_DEFAULTS)
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
    return config_from_values(_parse_values(text))


def config_from_values(values: dict[str, float]) -> NetworkConfig:
    if values["nbar"] < 0:
        raise ValueError(f"nbar must be nonnegative, got {values['nbar']}")
    return default_config(**{_CONFIG_ARGS.get(key, key): v for key, v in values.items()})


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, str)):
        return str(value)
    return format(float(value), ".10g")


def _write_csv(out: IO[str], header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _fixed_alpha(cfg: NetworkConfig, args: argparse.Namespace) -> tuple[float | None, float | None]:
    """Resolve the (alpha, nbar) pinning for coverage and sweeps.

    Priority: explicit --alpha, then explicit --nbar, then a configured
    nbar, then the documented default alpha = 1.
    """
    alpha = getattr(args, "alpha", None)
    nbar = getattr(args, "nbar", None)
    if alpha is not None:
        return alpha, None
    if nbar is not None:
        return None, nbar
    if cfg.traffic.n_bar > 0:
        return None, cfg.traffic.n_bar
    return 1.0, None


_SWEEP_HEADER = ["x", "h1", "q1", "q2", "c1", "c1_sic"]
_MC_HEADER = ["mc_c1", "mc_c1_ci95", "mc_c1_sic", "mc_c1_sic_ci95"]


def _emit_sweep_rows(out: IO[str], rows, with_mc: bool) -> None:
    header = _SWEEP_HEADER + (_MC_HEADER if with_mc else [])
    table = []
    for r in rows:
        record = [r.x, r.h1, r.q1, r.q2, r.c1, r.c1_sic]
        if with_mc:
            record += [r.mc_c1, r.mc_c1_ci95, r.mc_c1_sic, r.mc_c1_sic_ci95]
        table.append(record)
    _write_csv(out, header, table)


def _cmd_table1(cfg: NetworkConfig, args: argparse.Namespace, out: IO[str]) -> int:
    header = ["sf", "toa_ms", "bitrate_kbps", "sensitivity_dbm", "snr_threshold_db", "duty_cycle"]
    rows = [
        [r.sf, r.toa_ms, r.bitrate_kbps, r.sensitivity_dbm, r.snr_threshold_db, r.duty_cycle]
        for r in cfg.sf_table
    ]
    _write_csv(out, header, rows)
    return 0


def _cmd_coverage(cfg: NetworkConfig, args: argparse.Namespace, out: IO[str]) -> int:
    alpha, nbar = _fixed_alpha(cfg, args)
    spec = SweepSpec(
        variable="d1", start=args.d1, stop=args.d1, step=1.0,
        d1=args.d1, alpha=alpha, nbar=nbar,
    )
    _emit_sweep_rows(out, sweep(spec, cfg), with_mc=False)
    return 0


def _cmd_sweep(cfg: NetworkConfig, args: argparse.Namespace, out: IO[str]) -> int:
    alpha, nbar = _fixed_alpha(cfg, args)
    if args.var == "alpha":
        alpha, nbar = None, None
    spec = SweepSpec(
        variable=args.var,
        start=args.start,
        stop=args.stop,
        step=args.step,
        d1=args.d1,
        alpha=alpha,
        nbar=nbar,
        mc_trials=args.mc_trials,
        seed=args.seed,
    )
    _emit_sweep_rows(out, sweep(spec, cfg), with_mc=args.mc_trials > 0)
    return 0


def _cmd_mc(cfg: NetworkConfig, args: argparse.Namespace, out: IO[str]) -> int:
    from . import mcsim

    alpha, nbar = _fixed_alpha(cfg, args)
    alpha = resolve_intensity(cfg, args.d1, alpha, nbar)
    report = mcsim.estimate(args.d1, cfg, alpha, args.trials, seed=args.seed)
    header = ["outcome", "mean", "ci95_halfwidth", "trials"]
    rows = [
        [name, est.mean, est.ci95_halfwidth, est.trials]
        for name, est in (
            ("connected", report.connected),
            ("captured", report.captured),
            ("success_c1", report.success_c1),
            ("success_c1_sic", report.success_c1_sic),
            ("single_interferer_given_collision", report.single_interferer_given_collision),
        )
    ]
    _write_csv(out, header, rows)
    return 0


def validation_checks(
    cfg: NetworkConfig, trials: int, seed: int
) -> list[tuple[str, float, float, float, float, float, bool]]:
    """Analytic-vs-MC checks over the validation grid.

    Returns (check, d1, alpha, analytic, mc, limit, ok) tuples.  Marginals
    must match within 4 CI half-widths (they are exact under the model); the
    joint SIC success within max(4 CI, 0.02) because the closed form carries
    independence approximations; the plain joint success may exceed but not
    undershoot the analytic product by more than 4 CI half-widths.
    """
    from . import mcsim

    checks = []
    for point_index, d1 in enumerate(VALIDATE_D1):
        for alpha in VALIDATE_ALPHA:
            report = mcsim.estimate(
                d1, cfg, alpha, trials, seed=mcsim.derive_seed(seed, point_index * 101 + int(alpha * 100))
            )
            breakdown = coverage(d1, cfg, alpha)
            for name, analytic_value, est, slack in (
                ("connected_marginal", breakdown.h1, report.connected, 0.0),
                ("captured_marginal", breakdown.q1, report.captured, 0.0),
                ("joint_sic", breakdown.c1_sic, report.success_c1_sic, 0.02),
                (
                    "singles_given_collision",
                    single_interferer_given_collision(alpha),
                    report.single_interferer_given_collision,
                    0.0,
                ),
            ):
                limit = max(4.0 * est.ci95_halfwidth, slack)
                dev = abs(est.mean - analytic_value)
                checks.append((name, d1, alpha, analytic_value, est.mean, limit, dev <= limit))
            est = report.success_c1
            limit = 4.0 * est.ci95_halfwidth
            shortfall = breakdown.c1 - est.mean
            checks.append(
                ("joint_c1_lower_bound", d1, alpha, breakdown.c1, est.mean, limit, shortfall <= limit)
            )
    return checks


def _cmd_validate(cfg: NetworkConfig, args: argparse.Namespace, out: IO[str]) -> int:
    checks = validation_checks(cfg, args.trials, args.seed)
    header = ["check", "d1", "alpha", "analytic", "mc", "limit", "status"]
    rows = [
        [name, d1, alpha, ref, got, limit, "pass" if ok else "FAIL"]
        for name, d1, alpha, ref, got, limit, ok in checks
    ]
    _write_csv(out, header, rows)
    worst = max(abs(got - ref) for _, _, _, ref, got, _, _ in checks)
    failed = [c for c in checks if not c[6]]
    print(
        f"validate: {len(checks) - len(failed)}/{len(checks)} checks passed, "
        f"max abs deviation {worst:.6f}",
        file=sys.stderr,
    )
    return 0 if not failed else 2


def _cmd_capacity(cfg: NetworkConfig, args: argparse.Namespace, out: IO[str]) -> int:
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    except ValueError:
        raise UsageError(f"--alphas expects comma-separated numbers, got {args.alphas!r}")
    if not all(math.isfinite(a) for a in alphas):
        raise UsageError(f"--alphas entries must be finite, got {args.alphas!r}")
    if not alphas:
        raise UsageError("--alphas must name at least one intensity")
    rows = capacity_table(alphas, cfg.sf_table)
    _emit_capacity(out, rows)
    return 0


def _emit_capacity(out: IO[str], rows: list[CapacityRow]) -> None:
    header = ["alpha"] + [f"n_sf{sf}" for sf in range(7, 13)] + ["total"]
    _write_csv(out, header, [[r.alpha, *r.nodes, r.total] for r in rows])


def _cmd_plan(cfg: NetworkConfig, args: argparse.Namespace, out: IO[str]) -> int:
    alpha_star = find_alpha_for_target(args.target, args.d1, cfg, with_sic=args.sic)
    if alpha_star > 0:
        nodes = capacity_table([alpha_star], cfg.sf_table)[0]
    else:
        nodes = CapacityRow(alpha=0.0, nodes=(0,) * 6, total=0)
    header = ["target", "with_sic", "alpha_star"] + [f"n_sf{sf}" for sf in range(7, 13)] + ["total"]
    _write_csv(out, header, [[args.target, args.sic, alpha_star, *nodes.nodes, nodes.total]])
    return 0


def _build_parser() -> _Parser:
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

    sub.add_parser("table1", help="print the per-SF uplink characteristics")

    def _pinning(sub_parser: argparse.ArgumentParser) -> None:
        group = sub_parser.add_mutually_exclusive_group()
        group.add_argument("--alpha", type=_finite_float)
        group.add_argument("--nbar", type=_finite_float)

    p = sub.add_parser("coverage", help="probability breakdown at one distance")
    p.add_argument("--d1", type=_finite_float, required=True)
    _pinning(p)

    p = sub.add_parser("sweep", help="grid sweep of the breakdown")
    p.add_argument("--var", choices=("d1", "alpha", "gamma_db"), required=True)
    p.add_argument("--start", type=_finite_float, required=True)
    p.add_argument("--stop", type=_finite_float, required=True)
    p.add_argument("--step", type=_finite_float, required=True)
    p.add_argument("--d1", type=_finite_float, default=SweepSpec.d1)
    _pinning(p)
    p.add_argument("--mc-trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("mc", help="Monte Carlo estimates at one operating point")
    p.add_argument("--d1", type=_finite_float, required=True)
    _pinning(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("validate", help="analytic-vs-MC agreement report")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("capacity", help="node counts per SF at given intensities")
    p.add_argument("--alphas", required=True, help="comma-separated intensities")

    p = sub.add_parser("plan", help="largest intensity meeting a coverage target")
    p.add_argument("--target", type=_finite_float, required=True)
    p.add_argument("--sic", action="store_true")
    p.add_argument("--d1", type=_finite_float, default=SweepSpec.d1)

    return parser


_COMMANDS = {
    "table1": _cmd_table1,
    "coverage": _cmd_coverage,
    "sweep": _cmd_sweep,
    "mc": _cmd_mc,
    "validate": _cmd_validate,
    "capacity": _cmd_capacity,
    "plan": _cmd_plan,
}


def _load_config(args: argparse.Namespace) -> NetworkConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            values = _parse_values(fh.read())
    else:
        values = dict(_CONFIG_DEFAULTS)
    for pair in args.overrides:
        if "=" not in pair:
            raise UsageError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        _set_value(values, key.strip(), value, "--set override")
    return config_from_values(values)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        command = _COMMANDS[args.command]
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as out:
                return command(cfg, args, out)
        return command(cfg, args, sys.stdout)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (
        ValueError, ArithmeticError, OutOfCoverageError, InfeasibleTargetError, ConvergenceError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
