#!/usr/bin/env python3
"""famespan benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pretagged_1m --seed 1 --seconds 30 --trace 0

Inputs are generated from --seed (cached under perfbench/.cache, generation
is never timed).  With --trace 0 the run repeats whole passes of the
workload's CLI invocations, each a fresh ``python -m famespan.cli``
process, for about --seconds (at least MIN_PASSES passes), checks every pass's
outputs and prints the end-to-end metrics over the passes.  With --trace 1
it runs each invocation under perfbench/layertrace.py and prints
the medians of the per-layer metrics.  The last line of stdout is the
result object; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = BENCH / ".cache"
OUT = BENCH / ".out"
sys.path.insert(0, str(BENCH))

import checks as ck  # noqa: E402
import workloads as gen  # noqa: E402

STARTED = time.perf_counter()
DEADLINE_S = 160.0  # a hung invocation is killed so that the run still ends in time
GENERATOR_VERSION = 1
CACHED_SEEDS = 2  # input sets kept per workload
MIN_PASSES = 3
SETUP_LAUNCHES_PER_PASS = 2
SETUP_CODE = "import famespan.cli as c; getattr(c, 'build_parser', lambda: None)()"


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, Path], dict]
    commands: Callable[[Path, Path, int], list[list[str]]]
    check: Callable[[Path, Path, dict], None]


def _out_periods(out: Path) -> list[Path]:
    return sorted(out.glob("periods_*.csv"))


def _check_stats_outputs(out: Path, periods_files: list[Path], reps: int) -> None:
    """Series, fits and curves of each periods file."""
    for pf in periods_files:
        _, method, token = pf.stem.split("_", 2)
        cohorts = ck.cohorts_of(ck.read_periods(pf))
        ck.check_series(out / f"series_{method}_{token}_5y.csv", cohorts, reps)
        ck.check_fits(out / f"fits_{method}_{token}.json", cohorts)
        ck.check_curves(out, method, token, cohorts)


# pretagged_1m ---------------------------------------------------------------

PT_N_MIN, PT_REPS = 4000, 2000


def pt_commands(inp: Path, out: Path, seed: int) -> list[list[str]]:
    return [["run", "--input", str(inp / "corpus.jsonl"), "--schema", "pretagged",
             "--window", "2006-01", "2010-01", "--n-min", str(PT_N_MIN), "--seed", str(seed),
             "--reps", str(PT_REPS), "--out-dir", str(out)]]


def pt_check(inp: Path, out: Path, truth: dict) -> None:
    ck.check_sampling_report(out / "sampling_report.csv", truth["months"], PT_N_MIN)
    ck.check_planted(out, truth)
    periods = _out_periods(out)
    ck.expect(len(periods) == 6, f"{len(periods)} periods files, want 6")
    _check_stats_outputs(out, periods, PT_REPS)
    ck.check_summary(out / "summary.csv", periods, PT_REPS)


# century_bootstrap ----------------------------------------------------------

CB_REPS = 25000  # the CLI default, which the command does not override


def cb_commands(inp: Path, out: Path, seed: int) -> list[list[str]]:
    return [["run", "--input", str(inp / "corpus.jsonl"), "--window", "1895-01", "2011-01",
             "--n-min", str(gen.CB_MONTHLY), "--seed", str(seed), "--methods", "continuity",
             "--filters", "all", "--out-dir", str(out)]]


def cb_check(inp: Path, out: Path, truth: dict) -> None:
    ck.check_sampling_report(out / "sampling_report.csv", truth["months"], gen.CB_MONTHLY)
    ck.check_planted(out, truth, methods=("continuity",))
    periods = _out_periods(out)
    ck.expect([p.name for p in periods] == ["periods_continuity_all.csv"],
              f"periods files {[p.name for p in periods]}")
    _check_stats_outputs(out, periods, CB_REPS)
    ck.check_summary(out / "summary.csv", periods, CB_REPS)


# raw_staged -----------------------------------------------------------------

RS_N_MIN, RS_REPS = 200, 1000
RS_WINDOW = ["--window", "2001-01", "2003-01"]


def rs_commands(inp: Path, out: Path, seed: int) -> list[list[str]]:
    tagged, stages = out / "tagged.jsonl", out / "stages"
    sampling = ["--n-min", str(RS_N_MIN), "--seed", str(seed)]
    periods = [str(stages / f"periods_{m}_{f}.csv")
               for m in ("spike", "continuity") for f in ("all", "top-1000", "top-0.1pct")]
    return [
        ["extract", "--input", str(inp / "raw.jsonl"), "--gazetteer", str(inp / "gazetteer.txt"),
         "--out", str(tagged)],
        ["sample", "--input", str(tagged), *RS_WINDOW, *sampling, "--out", str(out / "sampled.jsonl"),
         "--report", str(out / "volumes.csv")],
        # periods reads the extracted corpus: re-sampling the sampled file
        # drops every month whose first pass kept fewer than n_min documents
        ["periods", "--input", str(tagged), *RS_WINDOW, *sampling, "--out-dir", str(stages)],
        ["stats", "--periods", periods[0], "--seed", str(seed), "--reps", str(RS_REPS),
         "--out-dir", str(stages)],
        ["report", "--periods", *periods, "--seed", str(seed), "--reps", str(RS_REPS),
         "--out-dir", str(stages)],
    ]


def rs_check(inp: Path, out: Path, truth: dict) -> None:
    stages = out / "stages"
    ck.check_extracted(out / "tagged.jsonl", truth["docs"])
    ck.check_sampling_report(out / "volumes.csv", truth["months"], RS_N_MIN)
    ck.check_sampled(out / "sampled.jsonl", out / "volumes.csv", truth["docs"])
    ck.check_sampling_report(stages / "sampling_report.csv", truth["months"], RS_N_MIN)
    ck.check_planted(stages, truth)
    periods = _out_periods(stages)
    ck.expect(len(periods) == 6, f"{len(periods)} periods files, want 6")
    _check_stats_outputs(stages, [stages / "periods_spike_all.csv"], RS_REPS)
    ck.check_summary(stages / "summary.csv", periods, RS_REPS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pretagged_1m", gen.generate_pretagged_1m, pt_commands, pt_check),
        Workload("century_bootstrap", gen.generate_century, cb_commands, cb_check),
        Workload("raw_staged", gen.generate_raw_staged, rs_commands, rs_check),
    )
}


# ---------------------------------------------------------------------------


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def ensure_inputs(wl: Workload, seed: int) -> tuple[Path, dict]:
    """Generate the workload's inputs for this seed unless cached."""
    d = CACHE / f"{wl.name}-{seed}-v{GENERATOR_VERSION}"
    if not (d / "truth.json").exists():
        tmp = d.with_name(d.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        t0 = time.perf_counter()
        truth = wl.generate(seed, tmp)
        (tmp / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
        shutil.rmtree(d, ignore_errors=True)
        tmp.rename(d)
        log(f"generated {wl.name} seed {seed} in {time.perf_counter() - t0:.1f} s: "
            f"{truth['documents']} documents, {truth['mentions']} mentions")
    others = sorted((p for p in CACHE.glob(f"{wl.name}-*") if p != d),
                    key=lambda p: p.stat().st_mtime, reverse=True)
    for old in others[CACHED_SEEDS - 1:]:
        shutil.rmtree(old, ignore_errors=True)
    os.utime(d)
    return d, json.loads((d / "truth.json").read_text(encoding="utf-8"))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measured(args: list[str], log_path: Path) -> tuple[int, float, float, float]:
    """Run one interpreter to its end under spawn.py, which kills its whole
    process group at the deadline: (exit code, wall s, CPU s, peak RSS MB)."""
    with open(log_path, "ab") as err:
        proc = subprocess.run(
            [sys.executable, "-S", str(BENCH / "spawn.py"), str(_time_left()), sys.executable, *args],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, env=_env(), cwd=ROOT,
            check=True)
    cost = json.loads(proc.stdout.decode().splitlines()[-1])
    return cost["code"], cost["wall_s"], cost["cpu_s"], cost["rss_mb"]


def _time_left() -> float:
    """Seconds before DEADLINE_S of the benchmark's life (at least one)."""
    return max(1.0, DEADLINE_S - (time.perf_counter() - STARTED))


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_checks(wl: Workload, inp: Path, out: Path, truth: dict) -> bool:
    try:
        wl.check(inp, out, truth)
        return True
    except ck.CheckFailed as exc:
        log(f"CHECK FAILED ({wl.name}): {exc}")
        return False


def measure(wl: Workload, inp: Path, truth: dict, seed: int, seconds: float) -> dict:
    work = fresh(OUT / wl.name)
    log_path = work / "famespan.log"
    out = work / "out"
    measured(["-c", SETUP_CODE], log_path)  # compiles bytecode; untimed
    setups, passes = [], []
    attempted = failed = rounds = 0
    correct = True
    t0 = time.perf_counter()
    while rounds < MIN_PASSES or time.perf_counter() - t0 < seconds:
        rounds += 1
        for _ in range(SETUP_LAUNCHES_PER_PASS):
            code, took = measured(["-c", SETUP_CODE], log_path)[:2]
            correct &= code == 0
            setups.append(took)
        fresh(out)
        wall = cpu = rss = 0.0
        ok = True
        for argv in wl.commands(inp, out, seed):
            code, w, c, r = measured(["-m", "famespan.cli", *argv], log_path)
            attempted += 1
            failed += code != 0
            ok &= code == 0
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        if ok:
            correct &= run_checks(wl, inp, out, truth)
            passes.append((wall, cpu, rss))
        log(f"pass {rounds}: wall {wall:.3f} s, cpu {cpu:.3f} s, rss {rss:.1f} MB, "
            f"setup {statistics.median(setups[-SETUP_LAUNCHES_PER_PASS:]):.3f} s"
            + ("" if ok else f", FAILED (see {log_path})"))
    if not passes:
        raise SystemExit(f"perfbench: every pass of {wl.name} failed; see {log_path}")
    # Times are means over the passes: the machine's speed switches between
    # two levels for seconds at a time, and the mean of a run's passes varies
    # less from run to run than their median (see README).
    mean_wall = statistics.fmean(p[0] for p in passes)
    metrics = {
        "wall_s": (mean_wall, "s"),
        "cpu_s": (statistics.fmean(p[1] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p[2] for p in passes), "MB"),
        "mentions_per_s": (truth["mentions"] / mean_wall, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced(wl: Workload, inp: Path, truth: dict, seed: int, seconds: float) -> dict:
    import layertrace

    work = fresh(OUT / wl.name)
    log_path = work / "famespan.log"
    out = work / "out"
    measured(["-c", SETUP_CODE], log_path)  # compiles bytecode; untimed
    per_pass: list[dict[str, float]] = []
    attempted = failed = 0
    correct = True
    t0 = time.perf_counter()
    while not per_pass or time.perf_counter() - t0 < seconds:
        fresh(out)
        spans, walls = [], []
        ok = True
        for k, argv in enumerate(wl.commands(inp, out, seed)):
            spans.append(work / f"spans-{k}.npz")
            spans[-1].unlink(missing_ok=True)
            code, wall = measured([str(BENCH / "layertrace.py"), str(spans[-1]), *argv],
                                  log_path)[:2]
            walls.append(wall)
            attempted += 1
            failed += code != 0
            ok &= code == 0
        if ok:
            correct &= run_checks(wl, inp, out, truth)
        metrics, missing = layertrace.pass_metrics(spans, walls)
        if missing:
            log(f"layers with no function left to trace: {', '.join(sorted(missing))}")
        per_pass.append(metrics)
        log(f"traced pass {len(per_pass)}: wall {sum(walls):.3f} s, "
            + ", ".join(f"{k} {v:.3f}" for k, v in metrics.items()))
    units = {name: "s" if name.endswith("_s") else "count" for name in per_pass[0]}
    metrics = {name: (statistics.median(p[name] for p in per_pass), units[name]) for name in per_pass[0]}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate-only", action="store_true",
                        help="build the cached inputs for this seed and exit")
    args = parser.parse_args(argv)
    if not (SRC / "famespan" / "cli.py").is_file():
        log(f"no famespan sources under {SRC}; run from the root of a famespan checkout")
        return 2
    wl = WORKLOADS[args.workload]
    inp, truth = ensure_inputs(wl, args.seed)
    if args.generate_only:
        print(inp)
        return 0
    run = traced if args.trace else measure
    result = run(wl, inp, truth, args.seed, args.seconds)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
