"""Command-line front end.

Four subcommands cover the whole workflow:

    synth     write the bundled study inputs (landscape layers, fuel catalog,
              network, hourly weather, reference tables) plus a ready-to-run
              study.ini into --out
    simulate  run the scenario batch described by a config file and write
              results.csv + run_meta.json
    assess    turn the rows of results.csv (or the shipped reference tables,
              via --from-tables) and the config's costs into loss tables, a
              ranking, and plot data
    report    print a human-readable summary of an assess output directory

Exit codes: 0 success, 2 usage or input error, 3 unexpected internal error.
All commands are deterministic given the same inputs and seed; nothing
wall-clock dependent is written to output files.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
import time
import traceback
from dataclasses import MISSING, dataclass, fields
from decimal import Decimal, InvalidOperation
from operator import itemgetter
from pathlib import Path
from typing import Callable

from .csvfile import Column, read_records, read_table, write_table
from .errors import GridFireError, InvalidInputError, OutOfBoundsError
from .fixtures import (
    REFERENCE_BURNED_ACRES,
    REFERENCE_DAMAGED_MILES,
    STUDY_CELL_M,
    STUDY_NROWS,
    ieee30_network,
    study_landscape,
    study_weather,
)
from .landscape import load_catalog, load_landscape, write_catalog, write_landscape
from .network import ignitable_lines, load_network, write_network
from .risk import CostParams, rank_lines, seasonal_average
from .scenarios import StudyConfig, assess_results, build_matrix, read_results, run_batch, write_results
from .spread import SpreadParams
from .weather import (IGNITION_HOUR, STUDY_YEAR, TIMESTAMP_FORMAT, load_weather, parse_timestamp,
                      season_labels, season_starts, write_weather)

SECTIONS = ("paths", "study", "spread", "costs")
RISK_COLUMNS = (
    Column("line_id", int),
    Column("lbe", float),
    Column("lbl", float),
    Column("wfl", float),
    Column("metric", float),
    Column("rank", int),
)
# plot_metric.csv holds risk.csv's line_id and metric columns.
_plot_columns = itemgetter(0, 4)


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _risk_row(*row):
    """A risk.csv row's values, whose losses and metric must be finite."""
    if not all(map(math.isfinite, row[1:5])):
        raise ValueError("non-finite loss or metric")
    return row


def _listed(parse):
    """Parser of a comma-separated list; an empty list reads as None."""
    return lambda text: tuple(parse(t.strip()) for t in text.split(",") if t.strip()) or None


@dataclass(frozen=True)
class Key:
    """One study.ini key: where it lives, how its text parses, its default.

    A key that fills a dataclass field (`owner`.`field`) takes its default
    from that field (None for a field built by a factory); any other key
    carries its own. Keys whose default is None are left out of the
    study.ini that synth writes.
    """

    section: str
    name: str
    parse: Callable[[str], object]
    owner: type | None = None
    field: str | None = None
    default: object = None

    def __post_init__(self):
        if self.owner is not None:
            default = next(f.default for f in fields(self.owner) if f.name == self.field)
            object.__setattr__(self, "default", None if default is MISSING else default)


SCHEMA = (
    Key("paths", "landscape_dir", str, default="landscape"),
    Key("paths", "fuel_catalog", str, default="fuel_catalog.csv"),
    Key("paths", "network", str, default="network.json"),
    Key("paths", "weather", str, default="weather.csv"),
    Key("study", "ignitions_per_line", int, StudyConfig, "ignitions_per_line"),
    Key("study", "duration_hours", _finite, StudyConfig, "duration_hours"),
    Key("study", "placement", str, StudyConfig, "placement"),
    Key("study", "seed", int, StudyConfig, "seed"),
    Key("study", "year", int, default=STUDY_YEAR),
    Key("study", "ignition_hour", int, default=IGNITION_HOUR),
    Key("study", "buffer_cells", int, StudyConfig, "buffer_cells"),
    Key("study", "line_ids", _listed(int), StudyConfig, "line_ids"),
    Key("study", "seasons", _listed(parse_timestamp), StudyConfig, "seasons"),
    Key("spread", "neighborhood", int, SpreadParams, "neighborhood"),
    Key("spread", "humidity_ref_pct", _finite, SpreadParams, "humidity_ref"),
    Key("spread", "min_ros_m_min", _finite, SpreadParams, "min_ros"),
    Key("spread", "max_eccentricity", _finite, SpreadParams, "max_eccentricity"),
    Key("costs", "cbe_per_acre", _finite, CostParams, "cbe"),
    Key("costs", "cbl_per_mile", _finite, CostParams, "cbl"),
)

KEYS = {f"{k.section}.{k.name}": k for k in SCHEMA}


def study_ini(values):
    """The study.ini text: every key that has a default, valued from
    `values` ("section.key" -> value) where given, else the default."""
    blocks = []
    for section in SECTIONS:
        rows = [f"{k.name} = {values.get(name, k.default)}"
                for name, k in KEYS.items() if k.section == section and k.default is not None]
        blocks.append("\n".join([f"[{section}]", *rows]))
    return "\n\n".join(blocks) + "\n"


@dataclass(frozen=True)
class Config:
    """A loaded study config: parsed values keyed "section.key", input
    paths resolved against the config file's folder, the validated study,
    and the sha256 of the effective config."""

    values: dict[str, object]
    paths: dict[str, Path]
    study: StudyConfig
    sha256: str


def _config_digest(cp, seed):
    items = [f"{s}.{k}={cp.get(s, k)}" for s in sorted(cp.sections()) for k in sorted(cp.options(s))]
    return hashlib.sha256("\n".join([*items, f"effective_seed={seed}"]).encode()).hexdigest()


def load_config(path, overrides, require, seed=None):
    """Read, check and resolve a study config: the ini file, if present
    (`require` makes its absence an error), plus --set section.key=value
    overrides.

    Values are taken literally (no `%` interpolation). Unknown sections
    and keys, values that do not parse as their key's type, non-finite
    numbers and values outside their field's domain raise ValueError
    naming the key; `seed`, when given, replaces the configured seed.
    """
    cp = configparser.ConfigParser(interpolation=None)
    p = Path(path)
    if p.is_file():
        cp.read(p)
    elif require:
        raise InvalidInputError(f"config file not found: {p}")
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep or "." not in key:
            raise InvalidInputError(f"--set expects section.key=value, got {item!r}")
        section, _, option = (t.strip() for t in key.partition("."))
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, option, value.strip())

    values = {name: k.default for name, k in KEYS.items()}
    for section in cp.sections():
        for option, raw in cp.items(section):
            name = f"{section}.{option}"
            if name not in KEYS:
                raise ValueError(f"unknown key {name} (known: {', '.join(KEYS)})")
            try:
                values[name] = KEYS[name].parse(raw)
            except ValueError as exc:
                raise ValueError(f"{name} = {raw!r}: {exc}") from None
        if section not in SECTIONS:
            raise ValueError(f"unknown section [{section}]")
    if seed is not None:
        values["study.seed"] = seed
    if values["study.seasons"] is None:
        try:
            values["study.seasons"] = season_starts(values["study.year"], values["study.ignition_hour"])
        except InvalidInputError as exc:
            raise ValueError(f"study.ignition_hour = {values['study.ignition_hour']}: {exc}") from None
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"study.year = {values['study.year']}: {exc}") from None
    # Every dataclass check reads a single field, so building the owner
    # with only this key's value pins a domain error on the key.
    for name, k in KEYS.items():
        if k.owner is not None:
            try:
                k.owner(**{k.field: values[name]})
            except InvalidInputError as exc:
                raise ValueError(f"{name}: {exc}") from None

    def fill(owner, **extra):
        return owner(**{k.field: values[name] for name, k in KEYS.items() if k.owner is owner}, **extra)

    study = fill(StudyConfig, spread=fill(SpreadParams), costs=fill(CostParams))
    # An absolute path replaces the config file's folder when joined to it.
    base = Path(path).resolve().parent
    paths = {k.name: base / values[name] for name, k in KEYS.items() if k.section == "paths"}
    return Config(values, paths, study, _config_digest(cp, study.seed))


# ---------------------------------------------------------------- commands


def _config(args, require):
    """A command's config: the --config file, which must exist, or else
    study.ini in the current directory, read if present (or `require`d)."""
    if args.config is not None:
        return load_config(args.config, args.overrides, require=True, seed=args.seed)
    return load_config("study.ini", args.overrides, require=require, seed=args.seed)


def cmd_synth(args):
    config = _config(args, require=False)
    seed = config.study.seed
    year = config.values["study.year"]
    if year > 9998:
        raise ValueError(f"study.year = {year}: a synthetic weather year must end by 9999")

    size = args.size if args.size is not None else STUDY_NROWS
    cell = args.cell_size if args.cell_size is not None else STUDY_CELL_M
    try:
        land = study_landscape(seed=seed, nrows=size, ncols=size, cell_size=cell)
        net = ieee30_network(width_m=size * cell, height_m=size * cell)
    except InvalidInputError as exc:
        raise InvalidInputError(f"--size {size} at --cell-size {cell:g} m: {exc}") from None
    wx = study_weather(year=year, seed=seed)

    out = Path(args.out)
    inputs = {k.name: out / k.default for k in SCHEMA if k.section == "paths"}
    out.mkdir(parents=True, exist_ok=True)

    write_landscape(land, inputs["landscape_dir"])
    write_catalog(land.catalog, inputs["fuel_catalog"])
    write_network(net, inputs["network"])
    write_weather(wx, inputs["weather"])
    _write_table(out / "table1.csv", REFERENCE_BURNED_ACRES, "%.1f".__mod__)
    _write_table(out / "table2.csv", REFERENCE_DAMAGED_MILES, "%.2f".__mod__)
    (out / "study.ini").write_text(study_ini({"study.seed": seed, "study.year": year}))

    n_lines = len(ignitable_lines(net))
    print(f"wrote study inputs to {out} ({size}x{size} at {cell:g} m, "
          f"{n_lines} ignitable lines, seed {seed})")
    return 0


def cmd_simulate(args):
    config = _config(args, require=True)
    paths, cfg = config.paths, config.study

    land = load_landscape(paths["landscape_dir"], catalog=load_catalog(paths["fuel_catalog"]))
    net = load_network(paths["network"])
    if not ignitable_lines(net):
        raise InvalidInputError(f"{paths['network']}: no branch is a line, so no fire can start")
    wx = load_weather(paths["weather"])

    # A route off the raster, or too far from it to project, fails here, in
    # the placement of its ignitions or in its corridor.
    try:
        specs = build_matrix(net, cfg, land.frame)
        t0 = time.perf_counter()
        results = run_batch(specs, land, wx, net, cfg, workers=args.workers)
    except OutOfBoundsError as exc:
        raise OutOfBoundsError(f"{paths['network']}: {exc}") from None
    elapsed = time.perf_counter() - t0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_results(results, out / "results.csv")

    warnings = [r.warning for r in results if r.warning]
    meta = {
        "config_sha256": config.sha256,
        "scenarios": len(results),
        "lines": len({r.line_id for r in results}),
        "seasons": [s.strftime(TIMESTAMP_FORMAT) for s in cfg.seasons],
        "warnings": warnings,
    }
    (out / "run_meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")

    print(f"{len(results)} scenarios in {elapsed:.1f} s -> {out / 'results.csv'}"
          + (f" ({len(warnings)} warnings, see run_meta.json)" if warnings else ""))
    return 0


def _write_table(path, table, show_avg=repr):
    """Write {line_id: season values} as a line_id,<season...>,avg CSV,
    rows in line order; `show_avg` formats each row's seasonal mean."""
    labels = season_labels(len(next(iter(table.values()))))
    columns = [Column("line_id", int), *(Column(label, float) for label in labels),
               Column("avg", float, show_avg)]
    write_table(path, columns,
                ([j, *vals, seasonal_average(vals)] for j, vals in sorted(table.items())))


def _check_avg(text, vals):
    """Raise ValueError unless `text`, a table row's avg, is the mean of its
    season values `vals` to within half a unit of its last printed decimal
    (0.05 for "2.5", 0.5 for "3"), so a rounded mean passes and a wrong one
    does not. The bound also allows n * eps of the mean, what summing the
    seasons in another order can change it by."""
    try:
        avg = Decimal(text)
    except InvalidOperation:
        avg = None
    if avg is None or not avg.is_finite():
        raise ValueError(f"avg {text!r} is not a finite number")
    mean = seasonal_average(vals)
    half = Decimal(5).scaleb(avg.as_tuple().exponent - 1)
    if abs(avg - Decimal(mean)) > half + Decimal(len(vals) * sys.float_info.epsilon * mean):
        raise ValueError(f"avg {text.strip()} is not the mean {mean!r} of the seasons")


def _season_rows(header):
    """The (line_id, [season values]) row builder of a table headed
    line_id, then `season_labels(n)` for its n seasons, then optionally avg."""
    if header[:1] != ["line_id"]:
        raise ValueError("expected header starting with line_id,")
    has_avg = header[-1] == "avg"
    n_seasons = len(header) - 1 - has_avg
    if n_seasons < 1:
        raise ValueError("no season columns in header")
    names = ",".join(["line_id", *season_labels(n_seasons)])
    if ",".join(header[:1 + n_seasons]) != names:
        raise ValueError(f"expected header {names}[,avg]")

    def row(fields):
        try:
            j = int(fields[0])
            vals = [float(x) for x in fields[1:1 + n_seasons]]
        except ValueError:
            raise ValueError(f"malformed table row {','.join(fields)!r}") from None
        if not all(0 <= v < math.inf for v in vals):
            raise ValueError(f"values {vals} must be finite and >= 0")
        if has_avg:
            _check_avg(fields[-1], vals)
        return j, vals

    return row


def _read_table(path):
    """Read a line_id,<season...>,avg CSV into {line_id: [season values]};
    when the header ends in avg, each row's avg must be its seasons' mean."""
    rows = read_records(path, _season_rows, line=itemgetter(0))
    return dict(row for _, row in rows)


def cmd_assess(args):
    config = _config(args, require=not args.from_tables)
    costs = config.study.costs
    if args.from_tables:
        acres_path, miles_path = args.from_tables
        acres, miles = _read_table(acres_path), _read_table(miles_path)
        try:
            records = rank_lines(acres, miles, costs)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{acres_path} and {miles_path}: {exc}") from None
    else:
        records = assess_results(read_results(args.results), costs)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out / "table_acres.csv", {r.line_id: r.season_acres for r in records})
    _write_table(out / "table_miles.csv", {r.line_id: r.season_miles for r in records})

    risk = [(rec.line_id, rec.lbe, rec.lbl, rec.wfl, rec.metric, rank)
            for rank, rec in enumerate(records, start=1)]
    write_table(out / "risk.csv", RISK_COLUMNS, risk)
    write_table(out / "plot_metric.csv", _plot_columns(RISK_COLUMNS), map(_plot_columns, risk))

    top = records[0]
    print(f"assessed {len(records)} lines -> {out / 'risk.csv'} "
          f"(top: line {top.line_id}, metric {top.metric:.3f})")
    return 0


def cmd_report(args):
    rdir = Path(args.report_dir)
    risk_path = rdir / "risk.csv"
    acres_path = rdir / "table_acres.csv"
    for path in (risk_path, acres_path):
        if not path.is_file():
            raise InvalidInputError(f"missing report file: {path}")

    # Each line and each rank names one row; the ranks must be 1..n.
    ranked = read_table(risk_path, RISK_COLUMNS, _risk_row, line=itemgetter(0), rank=itemgetter(5))
    for line, row in ranked:
        if not 1 <= row[5] <= len(ranked):
            raise InvalidInputError(f"{risk_path}: row {line}: rank {row[5]} is not in 1..{len(ranked)}")
    rows = sorted((row for _, row in ranked), key=itemgetter(5))

    acres = _read_table(acres_path)
    n_seasons = len(next(iter(acres.values())))
    labels = season_labels(n_seasons)
    col_means = [sum(v[s] for v in acres.values()) / len(acres) for s in range(n_seasons)]

    top_n = rows[:args.top]
    print(f"risk ranking, top {len(top_n)} of {len(rows)} lines")
    print(f"{'rank':>4} {'line':>5} {'metric':>8} {'wfl_usd':>15} {'lbe_usd':>15} {'lbl_usd':>15}")
    for j, lbe_d, lbl_d, wfl_d, metric, rank in top_n:
        print(f"{rank:>4} {j:>5} {metric:>8.4f} {wfl_d:>15,.0f} {lbe_d:>15,.0f} {lbl_d:>15,.0f}")

    print()
    print("mean burned acres per line by season:")
    for label, mean in zip(labels, col_means):
        print(f"  {label:<8} {mean:>10.1f}")
    peak = max(range(n_seasons), key=lambda s: col_means[s])
    mild = min(range(n_seasons), key=lambda s: col_means[s])
    print(f"peak season {labels[peak]}, mildest {labels[mild]}")
    if "summer" in labels and "winter" in labels:
        winter_mean = col_means[labels.index("winter")]
        if winter_mean > 0.0:
            ratio = col_means[labels.index("summer")] / winter_mean
            print(f"summer/winter mean burned-area ratio: {ratio:.2f}")
    return 0


# ---------------------------------------------------------------- entry


def _at_least(lo):
    """An argparse type: an integer no smaller than lo."""
    def integer(text):
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {n}")
        return n
    return integer


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, metavar="PATH",
                        help="ini config file, which must exist "
                             "(default: study.ini, if present)")
    common.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current directory)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override a single config value (repeatable)")

    parser = argparse.ArgumentParser(
        prog="gridfire",
        description="Grid-ignited wildfire risk engine: synthesize study inputs, "
                    "simulate ignition scenarios, and rank transmission lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="write study input fixtures")
    p.add_argument("--size", type=_at_least(2), default=None,
                   help="grid rows and columns (at least 2)")
    p.add_argument("--cell-size", type=float, default=None, help="cell size in meters")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", parents=[common], help="run the scenario batch")
    p.add_argument("--workers", type=_at_least(1), default=1,
                   help="worker processes for the scenario batch (at least 1)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("assess", parents=[common], help="compute losses and ranking")
    p.add_argument("--results", default="results.csv", metavar="PATH",
                   help="scenario results CSV from simulate")
    p.add_argument("--from-tables", nargs=2, metavar=("ACRES_CSV", "MILES_CSV"),
                   help="assess published per-season tables directly, skipping simulation")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("report", help="print an assessment summary")
    p.add_argument("report_dir", help="directory written by assess")
    p.add_argument("--top", type=_at_least(1), default=10,
                   help="ranking rows to print (at least 1)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GridFireError, configparser.Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
