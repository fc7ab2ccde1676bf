"""Command-line front end.

Subcommands
-----------
``var``        analytical VaR from a config file
``calibrate``  tau -> theta for a family (positional arguments)
``sample``     write a seeded copula sample
``mc``         one Monte Carlo convergence study
``table1``     the full convergence-table report over a (family, n) grid

Configs are INI files with ``[model]``, ``[margins]``, ``[quadrature]``,
``[mc]`` and ``[table1]`` sections; see the README for the key reference.
Exit codes: 0 success, 2 configuration error, 3 numerical error,
4 statistical failure (empty level sets).
"""
from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass
from datetime import datetime
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np

from .calibration import kendall_tau, theta_from_tau
from .errors import (DomainError, EmptyLevelSetError, ParameterError,
                     QuadratureError, RangeError, StudyError)
from .families import CopulaSpec, FamilyId
from .margins import TabulatedMargin, UniformMargin
from .mc import McConfig, run_study, stats_table_rows
from .quadrature import QuadConfig
from .rng import Seed
from .sampling import sample_copula, write_sample
from .var import var_for_spec

__all__ = ["main"]

# Table-1 defaults: caption parameters for the four simulated families
_TABLE1_THETAS = {FamilyId.CLAYTON: 2.0, FamilyId.FRANK: 5.74,
                  FamilyId.GUMBEL_HOUGAARD: 2.0, FamilyId.JOE: 2.4}
_TABLE1_NGRID = (50_000, 100_000, 500_000, 1_000_000)
_SECTIONS = ("model", "margins", "quadrature", "mc", "table1")


@dataclass(frozen=True)
class RunConfig:
    """Validated view of a parsed config file."""

    spec: CopulaSpec
    alpha: float
    margins: tuple
    quad: QuadConfig
    mc_n: tuple[int, ...]
    mc_replications: int
    mc_h: float
    seed: Seed
    table1_specs: tuple[CopulaSpec, ...]
    table1_n: tuple[int, ...]

    def study(self, spec: CopulaSpec, margins, n: int, stream_offset: int = 0) -> McConfig:
        """One study's config; ``stream_offset`` shifts the seed's stream id."""
        return McConfig(
            spec=spec, margins=margins, n=n, replications=self.mc_replications,
            h=self.mc_h, alpha=self.alpha, quad=self.quad,
            seed=self.seed.with_stream(self.seed.stream_id + stream_offset),
        )


def _config_error(msg: str) -> ParameterError:
    return ParameterError(f"config error: {msg}")


def _parse(section, key: str, default: str, kind=float, many: bool = False):
    """Read ``key`` as a number, or as a list of numbers when ``many``."""
    text = section.get(key, default)
    try:
        if many:
            return tuple(kind(tok) for tok in text.replace(",", " ").split())
        return kind(text)
    except (ValueError, OverflowError):
        raise _config_error(f"[{section.name}] {key} = {text!r} is not valid") from None


def _count(text: str) -> int:
    """An exact integer of magnitude at most 2^53, as ``5000`` or ``1e6``."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ValueError(text) from None
    if not value.is_finite() or value != value.to_integral_value() or abs(value) > 2 ** 53:
        raise ValueError(text)
    return int(value)


def _spec(family: FamilyId, theta: float, d: int) -> CopulaSpec:
    try:
        return CopulaSpec(family, theta, d)
    except ParameterError as exc:
        raise _config_error(str(exc)) from exc


def _load_margin(section, config_path: str):
    kind = section.get("kind", "uniform").strip().lower()
    if kind == "uniform":
        return UniformMargin()
    if kind != "file":
        raise _config_error(f"[margins] kind must be uniform or file, got {kind!r}")
    path = section.get("path", "").strip()
    if not path:
        raise _config_error("[margins] kind = file requires a path")
    # relative to the config file; join keeps an absolute path as it is
    path = os.path.join(os.path.dirname(os.path.abspath(config_path)), path)
    if not os.path.exists(path):
        raise _config_error(f"margins file not found: {path}")
    try:
        table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        raise _config_error(f"cannot read margins file {path}: {exc}") from None
    if table.shape[1] != 2:
        raise _config_error("margins file must have two columns: level,quantile")
    return TabulatedMargin(table[:, 0], table[:, 1])


def _table1_specs(section, d: int) -> tuple[CopulaSpec, ...]:
    names = section.get("families", " ".join(family.value for family in _TABLE1_THETAS))
    families = [FamilyId.from_string(tok) for tok in names.replace(",", " ").split()]
    if "thetas" in section:
        thetas = _parse(section, "thetas", "", many=True)
    else:
        thetas = [_TABLE1_THETAS.get(family) for family in families]
    if len(thetas) != len(families):
        raise _config_error("[table1] thetas must match families in length")
    if None in thetas:
        raise _config_error(
            f"no theta known for table family {families[thetas.index(None)].value!r}")
    return tuple(_spec(fam, theta, d) for fam, theta in zip(families, thetas))


def load_config(path: str, seed_override: int | None = None) -> RunConfig:
    """Parse and validate a config file (exit-code-2 errors on any defect)."""
    if not os.path.exists(path):
        raise _config_error(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    parser.read_dict(dict.fromkeys(_SECTIONS, {}))  # every section exists, maybe empty
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise _config_error(f"cannot parse {path}: {exc}") from exc
    model, quad, mc, t1 = (parser[name] for name in ("model", "quadrature", "mc", "table1"))

    if "family" not in model:
        raise _config_error("missing [model] family")
    family = FamilyId.from_string(model["family"])
    if ("theta" in model) == ("target_tau" in model):
        raise _config_error("[model] must set exactly one of theta / target_tau")
    d = _parse(model, "d", "3", _count)
    if "theta" in model:
        theta = _parse(model, "theta", "")
    else:
        theta = theta_from_tau(family, _parse(model, "target_tau", ""))
    spec = _spec(family, theta, d)

    mc_n = _parse(mc, "n", "50000", _count, many=True)
    if not mc_n:
        raise _config_error("[mc] n must list at least one sample size")
    seed = _parse(mc, "seed", "0", int) if seed_override is None else seed_override
    return RunConfig(
        spec=spec, alpha=_parse(model, "alpha", "0.05"),
        margins=(_load_margin(parser["margins"], path),) * spec.d,
        quad=QuadConfig(
            abs_tol=_parse(quad, "abs_tol", "1e-10"),
            rel_tol=_parse(quad, "rel_tol", "1e-9"),
            max_subdivisions=_parse(quad, "max_subdivisions", "2000", _count),
        ),
        mc_n=mc_n,
        mc_replications=_parse(mc, "replications", "100", _count),
        mc_h=_parse(mc, "h", "1e-4"),
        seed=Seed(seed, _parse(mc, "stream", "0", int)),
        table1_specs=_table1_specs(t1, spec.d),
        table1_n=_parse(t1, "n", mc.get("n", ""), _count, many=True) or _TABLE1_NGRID,
    )


def _fmt(x: float, full: bool) -> str:
    return repr(float(x)) if full else f"{x:.6f}"


def _model_header(command: str, cfg: RunConfig) -> list[str]:
    spec = cfg.spec
    return [f"# command = {command}", f"# family = {spec.family.value}",
            f"# theta = {spec.theta!r}", f"# d = {spec.d}", f"# alpha = {cfg.alpha!r}"]


def _stats_line(row, full: bool) -> str:
    """A study row: n, label (and component) as given, then five formatted floats."""
    return ",".join([str(x) for x in row[:-5]] + [_fmt(x, full) for x in row[-5:]])


def _check_out(path: str) -> None:
    """Fail before any work if ``--out`` names no writable file."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise ParameterError(f"cannot write --out {path}: not a file in a writable directory")


def _write_report(args, header: list[str], columns: str, rows: list[str]) -> None:
    """Header, optional timestamp, column line and rows, to ``--out`` or stdout."""
    if not args.no_timestamp:
        header = header + [f"# generated = {datetime.now().isoformat(timespec='seconds')}"]
    text = "\n".join(header + [columns] + rows) + "\n"
    if not args.out:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")


def cmd_var(args) -> int:
    cfg = load_config(args.config)
    res = var_for_spec(cfg.spec, cfg.margins, cfg.alpha, cfg.quad)
    _write_report(args, _model_header("var", cfg), "component,var,abs_error", [
        f"{i + 1},{_fmt(res.components[i], args.full_precision)},"
        f"{res.abs_error_estimate[i]:.3e}"
        for i in range(cfg.spec.d)
    ])
    print(
        f"var {cfg.spec.family.value} theta={cfg.spec.theta:g} d={cfg.spec.d} "
        f"alpha={cfg.alpha:g}: {res.components[0]:.6f}"
    )
    return 0


def cmd_calibrate(args) -> int:
    family = FamilyId.from_string(args.family)
    theta = theta_from_tau(family, args.tau)
    achieved = float(kendall_tau(CopulaSpec(family, theta, 2)))
    print(f"theta = {theta!r}  (kendall tau achieved {achieved!r})")
    line = f"{family.value},{args.tau!r},{theta!r}\n"
    sys.stdout.write(line)
    if args.out:
        Path(args.out).write_text(line, encoding="utf-8")
    return 0


def cmd_sample(args) -> int:
    cfg = load_config(args.config, args.seed)
    n = cfg.mc_n[0]
    out = args.out or "sample.csv"
    write_sample(sample_copula(cfg.spec, n, cfg.seed), out)
    print(f"wrote {n} x {cfg.spec.d} sample to {out}")
    return 0


def cmd_mc(args) -> int:
    cfg = load_config(args.config, args.seed)
    mc_cfg = cfg.study(cfg.spec, cfg.margins, cfg.mc_n[0])
    stats = run_study(mc_cfg, jobs=args.jobs)
    family = cfg.spec.family.value
    _write_report(args, _model_header("mc", cfg) + [
        f"# n = {mc_cfg.n}",
        f"# replications = {mc_cfg.replications}",
        f"# h = {mc_cfg.h!r}",
        f"# seed = {cfg.seed.value} / stream {cfg.seed.stream_id}",
        f"# mean_selected_count = {stats.mean_selected_count!r}",
        f"# failed_replications = {stats.failed_replications}",
    ], "n,copula,component,mean,std_dev,bias,rmse,theoretical", [
        _stats_line(row, args.full_precision)
        for row in stats_table_rows(stats, family, per_component=True)
    ])
    print(
        f"mc {family} n={mc_cfg.n} M={mc_cfg.replications}: "
        f"mean={stats.mean.mean():.6f} theo={stats.theoretical.mean():.6f}"
    )
    return 0


def cmd_table1(args) -> int:
    cfg = load_config(args.config, args.seed)
    # family-major: each study's replications take the next block of streams
    studies = [
        cfg.study(spec, (UniformMargin(),) * spec.d, n, i * cfg.mc_replications)
        for i, (spec, n) in enumerate((s, n) for s in cfg.table1_specs for n in cfg.table1_n)
    ]
    header = [
        "# command = table1",
        f"# alpha = {cfg.alpha!r}",
        f"# h = {cfg.mc_h!r}",
        f"# replications = {cfg.mc_replications}",
        f"# seed = {cfg.seed.value} / stream {cfg.seed.stream_id}",
    ]
    if any(s.family is FamilyId.JOE and s.theta == 2.4 for s in cfg.table1_specs):
        header.append(
            "# note: joe theta=2.4 has kendall tau "
            f"{kendall_tau(CopulaSpec(FamilyId.JOE, 2.4, 2)):.6f}, not 0.5; tau=0.5 would "
            f"require theta={theta_from_tau(FamilyId.JOE, 0.5):.6f} -- the caption "
            "calibration claim is inconsistent for joe and 2.4 is used as printed"
        )
    rows = []
    for mc_cfg in studies:
        (row,) = stats_table_rows(run_study(mc_cfg, jobs=args.jobs), mc_cfg.spec.family.value)
        rows.append(_stats_line(row, args.full_precision))
        n, label, mean, *_, theo = row
        print(f"table1 {label:8s} n={n}: mean={mean:.6f} theo={theo:.6f}")
    _write_report(args, header, "n,copula,mean,std_dev,bias,rmse,theoretical", rows)
    return 0


_FLAGS = {
    "--config": dict(default=None, help="INI config file"),
    "--seed": dict(type=int, default=None, help="override seed value"),
    "--jobs": dict(type=int, default=1, help="worker threads"),
    "--out": dict(default=None, help="output file (default stdout)"),
    "--no-timestamp": dict(action="store_true", help="omit the timestamp header line"),
    "--full-precision": dict(action="store_true",
                             help="print full float precision instead of 6 decimals"),
    "family": {},
    "tau": dict(type=float),
}
_REPORT_FLAGS = ("--config", "--out", "--no-timestamp", "--full-precision")
_STUDY_FLAGS = ("--config", "--seed", "--jobs", "--out", "--no-timestamp", "--full-precision")

# name, handler, help, arguments read by the handler
_COMMANDS = (
    ("var", cmd_var, "analytical VaR", _REPORT_FLAGS),
    ("calibrate", cmd_calibrate, "theta from Kendall tau", ("family", "tau", "--out")),
    ("sample", cmd_sample, "draw a seeded copula sample", ("--config", "--seed", "--out")),
    ("mc", cmd_mc, "one Monte Carlo study", _STUDY_FLAGS),
    ("table1", cmd_table1, "convergence table report", _STUDY_FLAGS),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archvar",
        description="Marginal multivariate VaR under Archimedean dependence",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "config") and not args.config:
        print("error: --config is required for this command", file=sys.stderr)
        return 2
    try:
        if args.out:
            _check_out(args.out)
        return args.fn(args)
    except (ParameterError, RangeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (EmptyLevelSetError, StudyError) as exc:
        print(f"statistical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
