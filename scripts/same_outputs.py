#!/usr/bin/env python3
"""Check that this tree writes the same study outputs as another tree.

    python3 scripts/same_outputs.py PARENT_TREE

PARENT_TREE is another gridfire checkout, for example the parent commit
unpacked with `git archive`. For each tree, `synth`, `simulate`, `assess`
and `report` run in subprocesses with only that tree's `src` on PYTHONPATH:

- `synth` at every perfbench workload's size;
- `simulate`, `assess` and `report` on every perfbench workload (its size
  and `--set` values, read from perfbench/run.py's WORKLOADS) at
  `--seed 7`, on the study128 workload again with 3-cell corridor buffers
  (`--set study.buffer_cells=3`), on the full 408-scenario 128x128
  study at `--workers 1` and `--workers 2`, and on that study at
  `--seed 7` on a copy of its inputs (`sparse128`) whose fuel.asc has
  fuel 0 on every body row but each 8th, where the engine has fewer edges
  than cells;
- `assess --from-tables` and `report` on the reference tables that
  `synth` writes.

Each `simulate` run also gets `arrivals.sha256`: one line per scenario,
its results.csv key and the sha256 of its arrival raster, computed by the
tree's own `SpreadEngine.run_group` on the run's config. So a solver
change is checked label by label, not only through burned counts.

Bad inputs are compared too. `simulate` runs on corrupted copies of the
smallest study's synth weather file: a ragged row, a bad timestamp, a
gap, an unparseable value and a humidity of 101, each as the last row of
the first block of `weather._BLOCK_ROWS` rows, as the first row of the
second, and there again after a blank line early in the file. It also
runs on corrupted copies of that study's landscape directory (`GRID_FAULTS`):
header counts that are not whole numbers, an origin or cell size no
raster can have, a layer whose cell size differs from fuel.asc's, a short
grid body, and fuel or slope cells a layer cannot hold. And it breaks
copies of the five CSV files the program writes and reads back
(`TABLE_FAULTS`): the synth fuel catalog, read by `simulate`; the synth
season table table1.csv, read by `assess --from-tables`; and the study128
run's results.csv, risk.csv and table_acres.csv, read by `assess` and
`report`. Each gets a wrong header name, a ragged row, an unparseable
number, a nan, a repeated key and no rows (the header line only). And
it runs `simulate` on broken copies of that study's network.json
(`NETWORK_FAULTS`): invalid JSON, a fractional id, a missing bus, a
repeated branch id, a one-point route and a route endpoint off its bus.
Both trees read the same copies, at the same path, so each run's exit
code and stderr, written to `bad-weather/<case>.txt`,
`bad-landscape/<case>.txt`, `bad-tables/<case>.txt` or
`bad-network/<case>.txt`, must match byte for byte.

It compares every file these write, and each `report`'s stdout, byte for
byte, prints one line per file, and exits 1 if any file differs or is
missing from one tree. Outputs go to a temporary directory.

For information, it also prints each tree's peak resident set size (the
`ru_maxrss` that `os.wait4` reports) of every study `simulate` run above,
one line per run; these figures do not change the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7

# case: (layer file, what breaks it, the new text). A header key gets the
# text as its value, "cell" puts it in the first cell of the middle body
# row, and "short-body" drops the last row.
GRID_FAULTS = {
    "ncols-fraction": ("slope.asc", "ncols", "128.6"),
    "ncols-nan": ("slope.asc", "ncols", "nan"),
    "ncols-1e400": ("slope.asc", "ncols", "1e400"),
    "xllcorner-200": ("slope.asc", "xllcorner", "200"),
    "cellsize-1e308": ("slope.asc", "cellsize", "1e308"),
    "cellsize-differs": ("aspect.asc", "cellsize", "60"),
    "short-body": ("aspect.asc", "short-body", None),
    "fuel-fraction": ("fuel.asc", "cell", "1.4"),
    "fuel-nan": ("fuel.asc", "cell", "nan"),
    "fuel-inf": ("fuel.asc", "cell", "inf"),
    "fuel-1e30": ("fuel.asc", "cell", "1e30"),
    "slope-95": ("slope.asc", "cell", "95"),
}

# file: (the gridfire command that reads a broken copy, the number column
# that the unparseable and nan faults break, the faults). In a command,
# {ini} is the study config, {file} the broken input, {dir} its folder and
# {out} an output folder of the run's own.
FAULTS = ("header", "ragged", "unparseable", "nan", "repeat", "empty")
TABLE_FAULTS = {
    "fuel_catalog.csv": ("simulate --config {ini} --out {out} --set paths.fuel_catalog={file}",
                         3, FAULTS),
    "table1.csv": ("assess --from-tables {file} {dir}/table2.csv --out {out}", 1, FAULTS),
    "results.csv": ("assess --config {ini} --results {file} --out {out}", 4, FAULTS),
    "risk.csv": ("report {dir}", 1, FAULTS),
    "table_acres.csv": ("report {dir}", 1, FAULTS),
}


# case: how a broken copy of network.json differs from the synth one. All
# but the first break branch 5, a line from bus 2 to bus 5.
NETWORK_FAULTS = {
    "invalid-json": "the file cut in half",
    "fractional-id": "branch 5's id is 5.5",
    "missing-bus": "branch 5 ends at bus 99, which is not in the file",
    "repeated-branch-id": "branch 6 takes id 5",
    "one-point-route": "line 5's route keeps only its first point",
    "endpoint-off-bus": "line 5's route starts 0.01 degrees north of bus 2",
}


def perfbench():
    """perfbench/run.py as a module, for its WORKLOADS and input seed."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def sizes(bench) -> list[int]:
    """The synth sizes the runs read, smallest first."""
    return sorted({w.size for w in bench.WORKLOADS.values()} | {128})


def runs(bench) -> list[tuple[str, str, list[str], int]]:
    """(name, inputs folder, simulate and assess arguments, workers) per run."""
    out = []
    for name, w in bench.WORKLOADS.items():
        sets = [a for s in w.sets for a in ("--set", s)]
        out.append((name, f"inputs{w.size}", ["--seed", str(SEED), *sets], 1))
        if name == "study128":
            out.append(("study128-buffer3", f"inputs{w.size}",
                        ["--seed", str(SEED), *sets, "--set", "study.buffer_cells=3"], 1))
    out += [(f"study408-workers{k}", "inputs128", [], k) for k in (1, 2)]
    out.append(("study408-sparse-fuel", "sparse128", ["--seed", str(SEED)], 1))
    return out


def write_sparse_fuel(source: Path, out: Path) -> None:
    """Copy the inputs folder `source` to `out` and set every body row of
    the copy's fuel.asc but each 8th to fuel 0."""
    shutil.copytree(source, out)
    path = out / "landscape" / "fuel.asc"
    lines = path.read_text().splitlines()
    body = next(i for i, line in enumerate(lines) if not line[:1].isalpha())
    for i in range(body, len(lines)):
        if (i - body) % 8:
            lines[i] = " ".join("0" for _ in lines[i].split())
    path.write_text("\n".join(lines) + "\n")


def run(tree: Path, *args: str) -> tuple[subprocess.CompletedProcess, float]:
    """One Python command run with the tree's sources, and its peak
    resident set size in MB."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen([sys.executable, *args], env=env, stdout=out, stderr=err, text=True)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(proc.args, proc.returncode, out.read(), err.read())
    return done, usage.ru_maxrss / 1024.0


def python(tree: Path, *args: str) -> tuple[str, float]:
    """The stdout and peak RSS in MB of one Python command run with the
    tree's sources."""
    done, peak = run(tree, *args)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(args)} exited {done.returncode}\n{done.stderr}")
    return done.stdout, peak


def gridfire(tree: Path, *args: str) -> str:
    """The stdout of one gridfire command run with the tree's sources."""
    return python(tree, "-m", "gridfire.cli", *args)[0]


def write_arrivals(ini: str, path: str, args: list[str]) -> None:
    """Write `path`: per scenario of `simulate --config ini *args`, in
    results.csv order, its line, season and ignition index and the sha256
    of its arrival raster. Imports gridfire from PYTHONPATH, so run it as
    `same_outputs.py --arrivals INI PATH [ARGS]` under the tree's `src`."""
    from gridfire import cli
    from gridfire.landscape import load_catalog, load_landscape
    from gridfire.network import load_network
    from gridfire.scenarios import build_matrix
    from gridfire.spread import SpreadEngine

    config = cli._config(cli.build_parser().parse_args(["simulate", "--config", ini, *args]),
                         require=True)
    paths, cfg = config.paths, config.study
    land = load_landscape(paths["landscape_dir"], catalog=load_catalog(paths["fuel_catalog"]))
    specs = build_matrix(load_network(paths["network"]), cfg, land.frame)
    wx, engine = cli.load_weather(paths["weather"]), SpreadEngine(land, cfg.spread)
    rows = [""] * len(specs)
    for season, start in enumerate(cfg.seasons):
        group = [k for k, ig in enumerate(specs) if ig.start == start]
        for i, burn in engine.run_group([specs[k] for k in group], wx):
            ig = specs[group[i]]
            rows[group[i]] = (f"{ig.line_id},{season},{ig.ignition_index},"
                              f"{hashlib.sha256(burn.arrival.tobytes()).hexdigest()}")
    Path(path).write_text("\n".join(rows) + "\n")


def corrupt(row: str, next_row: str, fault: str) -> str:
    """A weather row broken by one fault; `next_row` is the row after it."""
    stamp, values = row.split(",", 1)
    return {
        "ragged": row.rsplit(",", 1)[0],
        "bad-timestamp": f"2022-13-01T00:00Z,{values}",
        "gap": f"{next_row.split(',', 1)[0]},{values}",
        "unparseable": f"{stamp},warm,{values.split(',', 1)[1]}",
        "rh101": f"{row.rsplit(',', 1)[0]},101",
    }[fault]


def write_bad_weather(source: Path, out: Path, block: int) -> list[Path]:
    """Write the corrupted copies of the weather file `source` into `out`."""
    out.mkdir()
    lines = source.read_text().splitlines()
    files = []
    for fault in ("ragged", "bad-timestamp", "gap", "unparseable", "rh101"):
        for where, row, blank in (("last-of-block", block - 1, None), ("next-block", block, None),
                                  ("after-blank", block, 10)):
            bad = lines.copy()
            bad[row + 1] = corrupt(lines[row + 1], lines[row + 2], fault)
            if blank is not None:
                bad.insert(blank + 1, "")
            files.append(out / f"{fault}-{where}.csv")
            files[-1].write_text("\n".join(bad) + "\n")
    return files


def write_bad_landscapes(source: Path, out: Path) -> list[Path]:
    """Copy the landscape directory `source` into out/<case>, one copy per
    GRID_FAULTS case, and break one layer file of each copy."""
    out.mkdir()
    dirs = []
    for case, (fname, where, text) in GRID_FAULTS.items():
        shutil.copytree(source, out / case)
        path = out / case / fname
        lines = path.read_text().splitlines()
        if where == "short-body":
            lines.pop()
        elif where == "cell":
            row = len(lines) // 2
            lines[row] = " ".join([text, *lines[row].split()[1:]])
        else:
            lines = [f"{where} {text}" if line.split()[0] == where else line for line in lines]
        path.write_text("\n".join(lines) + "\n")
        dirs.append(out / case)
    return dirs


def write_bad_networks(source: Path, out: Path) -> list[Path]:
    """Write the broken copies of the network file `source` into `out`,
    one per NETWORK_FAULTS case."""
    out.mkdir()
    text = source.read_text()
    files = []
    for case in NETWORK_FAULTS:
        doc = json.loads(text)
        line = doc["branches"][4]
        assert line["id"] == 5 and line["kind"] == "line", line
        if case == "fractional-id":
            line["id"] = 5.5
        elif case == "missing-bus":
            line["to"] = 99
        elif case == "repeated-branch-id":
            doc["branches"][5]["id"] = 5
        elif case == "one-point-route":
            del line["route"][1:]
        elif case == "endpoint-off-bus":
            line["route"][0][0] += 0.01
        files.append(out / f"{case}.json")
        files[-1].write_text(text[:len(text) // 2] if case == "invalid-json" else json.dumps(doc))
    return files


def corrupt_table(lines: list[str], fault: str, column: int) -> list[str]:
    """A CSV file's lines broken by one fault: in the header's `column`
    name, in its middle data row, a copy of its first data row at the end,
    or every data row dropped."""
    bad, row = lines.copy(), len(lines) // 2
    fields = bad[row].split(",")
    if fault == "empty":
        bad = lines[:1]
    elif fault == "header":
        names = bad[0].split(",")
        names[column] = "value"
        bad[0] = ",".join(names)
    elif fault == "ragged":
        bad[row] = ",".join(fields[:-1])
    elif fault == "repeat":
        bad.append(lines[1])
    else:
        fields[column] = {"unparseable": "warm", "nan": "nan"}[fault]
        bad[row] = ",".join(fields)
    return bad


def write_bad_tables(sources: dict[str, Path], out: Path) -> dict[str, tuple[str, Path]]:
    """Copy the folder of each TABLE_FAULTS file in `sources` (name ->
    path) into out/<case>, once per fault, and break the file in the copy.
    Returns each case's command and broken file."""
    out.mkdir()
    cases = {}
    for name, (command, column, faults) in TABLE_FAULTS.items():
        lines = sources[name].read_text().splitlines()
        for fault in faults:
            case = f"{Path(name).stem}-{fault}"
            shutil.copytree(sources[name].parent, out / case)
            path = out / case / name
            path.write_text("\n".join(corrupt_table(lines, fault, column)) + "\n")
            cases[case] = (command, path)
    return cases


def bad_input_runs(tree: Path, out: Path, ini: Path, cases: dict[str, tuple[str, Path]]) -> None:
    """Run each case's gridfire command (placeholders as in TABLE_FAULTS,
    `ini` the study config and out/<case>-run the {out}) on its corrupted
    input, and write its exit code and stderr to out/<case>.txt."""
    out.mkdir()
    for case, (command, path) in cases.items():
        args = [a.format(ini=ini, file=path, dir=path.parent, out=out / f"{case}-run")
                for a in command.split()]
        done, _ = run(tree, "-m", "gridfire.cli", *args)
        (out / f"{case}.txt").write_text(f"exit {done.returncode}\n{done.stderr}")


def report(tree: Path, out: Path) -> None:
    (out / "report.txt").write_text(gridfire(tree, "report", str(out / "report")))


def run_tree(tree: Path, work: Path, bench) -> dict[str, float]:
    """Write the tree's outputs under `work`; return the peak RSS in MB of
    each run's `simulate`, by run name."""
    for size in sizes(bench):
        gridfire(tree, "synth", "--out", str(work / f"inputs{size}"),
                 "--seed", str(bench.STUDY_INPUT_SEED), "--size", str(size))
    write_sparse_fuel(work / "inputs128", work / "sparse128")
    peaks = {}
    for name, inputs, args, workers in runs(bench):
        ini, out = str(work / inputs / "study.ini"), work / name
        _, peaks[name] = python(tree, "-m", "gridfire.cli", "simulate", "--config", ini,
                                "--out", str(out / "run"), "--workers", str(workers), *args)
        python(tree, str(Path(__file__).resolve()), "--arrivals", ini,
               str(out / "run" / "arrivals.sha256"), *args)
        gridfire(tree, "assess", "--config", ini, "--results", str(out / "run" / "results.csv"),
                 "--out", str(out / "report"), *args)
        report(tree, out)
    study, out = work / f"inputs{sizes(bench)[0]}", work / "from-tables"
    gridfire(tree, "assess", "--from-tables", str(study / "table1.csv"),
             str(study / "table2.csv"), "--out", str(out / "report"))
    report(tree, out)
    return peaks


def compare(parent: Path, change: Path) -> int:
    """Print one line per file written under either tree's outputs;
    return the number that differ or exist under one tree only."""
    differ = 0
    found = sorted({p.relative_to(root).as_posix()
                    for root in (parent, change) for p in root.rglob("*") if p.is_file()})
    for rel in found:
        a, b = parent / rel, change / rel
        if not (a.is_file() and b.is_file()):
            status = "missing"
        else:
            status = "same" if a.read_bytes() == b.read_bytes() else "DIFFERS"
        differ += status != "same"
        print(f"{status:<8} {rel}")
    return differ


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--arrivals"]:
        write_arrivals(argv[1], argv[2], argv[3:])
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="the other gridfire tree")
    args = p.parse_args(argv)
    if not (args.parent / "src" / "gridfire" / "cli.py").is_file():
        print(f"same_outputs: no gridfire sources under {args.parent / 'src'}", file=sys.stderr)
        return 2
    bench = perfbench()
    trees = (("parent", args.parent.resolve()), ("change", ROOT))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        peaks = {label: run_tree(tree, work / label, bench) for label, tree in trees}
        inputs = work / "parent" / f"inputs{sizes(bench)[0]}"
        block, _ = python(ROOT, "-c", "from gridfire.weather import _BLOCK_ROWS as b; print(b)")
        block = int(block)
        files = write_bad_weather(inputs / "weather.csv", work / "bad-weather", block)
        dirs = write_bad_landscapes(inputs / "landscape", work / "bad-landscape")
        networks = write_bad_networks(inputs / "network.json", work / "bad-network")
        study = work / "parent" / "study128"
        bad = {
            "bad-weather": {
                f.stem: ("simulate --config {ini} --out {out} --set paths.weather={file}", f)
                for f in files},
            "bad-landscape": {
                d.stem: ("simulate --config {ini} --out {out} --set paths.landscape_dir={file}", d)
                for d in dirs},
            "bad-network": {
                f.stem: ("simulate --config {ini} --out {out} --set paths.network={file}", f)
                for f in networks},
            "bad-tables": write_bad_tables({"fuel_catalog.csv": inputs / "fuel_catalog.csv",
                                            "table1.csv": inputs / "table1.csv",
                                            "results.csv": study / "run" / "results.csv",
                                            "risk.csv": study / "report" / "risk.csv",
                                            "table_acres.csv": study / "report" / "table_acres.csv"},
                                           work / "bad-tables-inputs"),
        }
        for label, tree in trees:
            for kind, cases in bad.items():
                bad_input_runs(tree, work / label / kind, inputs / "study.ini", cases)
        differ = compare(work / "parent", work / "change")
    for name in peaks["parent"]:
        print(f"simulate peak RSS {name}: parent {peaks['parent'][name]:.1f} MB, "
              f"change {peaks['change'][name]:.1f} MB")
    print(f"{differ} file(s) differ" if differ else "all outputs byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
