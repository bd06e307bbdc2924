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
  (`--set study.buffer_cells=3`), and on the full 408-scenario 128x128
  study at `--workers 1` and `--workers 2`;
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
second, and there again after a blank line early in the file. Both trees
read the same copies, at the same path, so each run's exit code and
stderr, written to `bad-weather/<case>.txt`, must match byte for byte.

It compares every file these write, and each `report`'s stdout, byte for
byte, prints one line per file, and exits 1 if any file differs or is
missing from one tree. Outputs go to a temporary directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def perfbench():
    """perfbench/run.py as a module, for its WORKLOADS and input seed."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def runs(bench) -> list[tuple[str, int, list[str], int]]:
    """(name, synth size, simulate and assess arguments, workers) per run."""
    out = []
    for name, w in bench.WORKLOADS.items():
        sets = [a for s in w.sets for a in ("--set", s)]
        out.append((name, w.size, ["--seed", str(SEED), *sets], 1))
        if name == "study128":
            out.append(("study128-buffer3", w.size,
                        ["--seed", str(SEED), *sets, "--set", "study.buffer_cells=3"], 1))
    out += [(f"study408-workers{k}", 128, [], k) for k in (1, 2)]
    return out


def run(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """One Python command run with the tree's sources."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def python(tree: Path, *args: str) -> str:
    """The stdout of one Python command run with the tree's sources."""
    done = run(tree, *args)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(args)} exited {done.returncode}\n{done.stderr}")
    return done.stdout


def gridfire(tree: Path, *args: str) -> str:
    """The stdout of one gridfire command run with the tree's sources."""
    return python(tree, "-m", "gridfire.cli", *args)


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


def bad_weather_runs(tree: Path, work: Path, ini: Path, files: list[Path]) -> None:
    """Write the exit code and stderr of `simulate` on each corrupted
    weather file to work/bad-weather/<case>.txt."""
    out = work / "bad-weather"
    out.mkdir()
    for path in files:
        done = run(tree, "-m", "gridfire.cli", "simulate", "--config", str(ini),
                   "--out", str(out / f"{path.stem}-run"), "--set", f"paths.weather={path}")
        (out / f"{path.stem}.txt").write_text(f"exit {done.returncode}\n{done.stderr}")


def report(tree: Path, out: Path) -> None:
    (out / "report.txt").write_text(gridfire(tree, "report", str(out / "report")))


def run_tree(tree: Path, work: Path, bench) -> None:
    sizes = sorted({size for _, size, _, _ in runs(bench)})
    for size in sizes:
        gridfire(tree, "synth", "--out", str(work / f"inputs{size}"),
                 "--seed", str(bench.STUDY_INPUT_SEED), "--size", str(size))
    for name, size, args, workers in runs(bench):
        ini, out = str(work / f"inputs{size}" / "study.ini"), work / name
        gridfire(tree, "simulate", "--config", ini, "--out", str(out / "run"),
                 "--workers", str(workers), *args)
        python(tree, str(Path(__file__).resolve()), "--arrivals", ini,
               str(out / "run" / "arrivals.sha256"), *args)
        gridfire(tree, "assess", "--config", ini, "--results", str(out / "run" / "results.csv"),
                 "--out", str(out / "report"), *args)
        report(tree, out)
    study, out = work / f"inputs{sizes[0]}", work / "from-tables"
    gridfire(tree, "assess", "--from-tables", str(study / "table1.csv"),
             str(study / "table2.csv"), "--out", str(out / "report"))
    report(tree, out)


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
        for label, tree in trees:
            run_tree(tree, work / label, bench)
        inputs = work / "parent" / f"inputs{min(size for _, size, _, _ in runs(bench))}"
        block = int(python(ROOT, "-c", "from gridfire.weather import _BLOCK_ROWS as b; print(b)"))
        files = write_bad_weather(inputs / "weather.csv", work / "bad-weather", block)
        for label, tree in trees:
            bad_weather_runs(tree, work / label, inputs / "study.ini", files)
        differ = compare(work / "parent", work / "change")
    print(f"{differ} file(s) differ" if differ else "all outputs byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
