"""Pipeline orchestration and the command-line interface.

Subcommands mirror the pipeline stages so every stage can be re-run and
inspected through its intermediate files:

  synth    generate a pre-tagged corpus from a generator spec (JSON)
  extract  run the heuristic recognizer: raw JSONL -> pre-tagged JSONL
  sample   volume-normalize a corpus to n_min documents per month
  periods  compute fame periods per (method, name filter) -> CSVs
  stats    quantile series, cumulative curves, tail fits for one periods CSV
  report   summary table (+ manifest) from periods CSVs
  run      all of the above end to end, in memory

All randomness flows from one --seed; stage seeds are derived, so equal
(config, seed, inputs) produce byte-identical artifacts.

extract runs without numpy; the numpy-side stages load on first use (_load_stages).

Exit codes: 0 ok, 2 config error, 3 data error, 4 statistics error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace
from datetime import date
from fractions import Fraction
from itertools import compress
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .constants import METHOD_SPIKE, METHODS, UNDERFULL_POLICIES, WIDTH_3_MONTHS, WIDTH_5_YEARS
from .corpus_io import (
    AnalysisWindow,
    Block,
    ListSink,
    Sink,
    read_documents,
    record_json,
    write_documents,
)
from .dates import parse_month
from .errors import ConfigError, DataError, EmptyCohort, FamespanError
from .name_extract import RecognizerConfig, load_recognizer, phrase_counts

if TYPE_CHECKING:
    import numpy as np

    from . import report as rep
    from .peaks import FamePeriod, WeekGrid
    from .timeline import Timeline


def _load_stages() -> None:
    """Bind the numpy-side stage names into this module's namespace.  The
    stage code looks them up here, so a name already bound (a wrapper
    that perfbench/layertrace.py put in first) is kept; calling this again
    changes nothing."""
    from . import report as rep
    from .peaks import WeekGrid, continuity_period, period_filter, spike_period
    from .sampler import SamplerConfig, keep_scorer, sample_columns, write_sampling_report
    from .stats import assign_cohorts, cumulative_curve
    from .timeline import (MentionColumns, basic_name_filter, build_timelines, top_frac_by_year,
                           top_k_by_year, yearly_counts)

    for name, value in dict(locals()).items():
        globals().setdefault(name, value)


def __getattr__(name: str):
    """A stage name looked up from outside before any stage ran (PEP 562);
    tools probing dunders (doctest's __test__) do not load the stages."""
    if not name.startswith("__"):
        _load_stages()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


FILTERS = ("all", "top-1000", "top-0.1%")
_FILTER_FILE_TOKEN = {"all": "all", "top-1000": "top-1000", "top-0.1%": "top-0.1pct"}
_PERIODS_FILE_LABEL = {
    f"periods_{m}_{token}": (m, f) for m in METHODS for f, token in _FILTER_FILE_TOKEN.items()
}

_WORD_LISTS = ("gazetteer", "honorifics", "stoplist")

# (setting, test, what it must be) of the values the sampler, statistics,
# name filters and period filter reject, checked before any input is read
_RANGES = (
    ("n_min", lambda v: v >= 1, "at least 1"),
    ("reps", lambda v: v >= 1, "at least 1"),
    ("level", lambda v: 0 < v < 1, "in (0, 1)"),
    ("tail_quantile", lambda v: 0 < v <= 1, "in (0, 1]"),
    ("width", lambda v: v >= 1, "at least 1"),
    ("top_fraction", lambda v: v > 0, "above 0"),
    ("top_k", lambda v: v >= 1, "at least 1"),
    ("min_mentions", lambda v: v >= 1, "at least 1"),
    ("min_duration", lambda v: v >= 0, "at least 0"),
)


def _check_ranges(settings: dict) -> None:
    """ConfigError for the first of ``settings`` (a RunConfig's fields or
    parsed arguments) that is out of its range; absent ones pass."""
    for name, test, wanted in _RANGES:
        if name in settings and not test(settings[name]):
            raise ConfigError(f"--{name.replace('_', '-')} must be {wanted}, got {settings[name]}")


@dataclass
class RunConfig:
    """End-to-end pipeline configuration; defaults follow the standard
    weekly grid, 5-year cohorts, 25000-rep 99% bootstrap, 80th-percentile
    tail setup.  The command-line defaults are read from here."""

    window: AnalysisWindow
    n_min: int
    seed: int
    methods: tuple[str, ...] = METHODS
    filters: tuple[str, ...] = FILTERS
    schema: str = "pretagged"
    cohort_widths: tuple[int, ...] = (WIDTH_3_MONTHS, WIDTH_5_YEARS)
    reps: int = 25000
    level: float = 0.99
    tail_quantile: float = 0.8
    min_mentions: int = 10
    min_duration: float = 2.0
    top_k: int = 1000
    top_fraction: Fraction = Fraction(1, 1000)
    underfull_policy: str = "drop-month"
    gazetteer: Path | None = None
    honorifics: Path | None = None
    stoplist: Path | None = None

    def __post_init__(self):
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise ConfigError(f"methods must be a non-empty subset of {METHODS}")
        if not self.filters or any(f not in FILTERS for f in self.filters):
            raise ConfigError(f"filters must be a non-empty subset of {FILTERS}")
        if self.schema == "raw" and self.gazetteer is None:
            raise ConfigError("raw schema needs --gazetteer for the recognizer")
        widths = tuple(sorted(set(self.cohort_widths)))
        if not widths or widths[0] < 1:
            raise ConfigError("cohort widths must be positive month counts")
        self.cohort_widths = widths
        _check_ranges(vars(self))

    def recognizer(self, digests: dict[str, str] | None = None) -> RecognizerConfig | None:
        """The recognizer of the word lists given; ``digests`` is load_wordlist's."""
        if self.gazetteer is None:
            return None
        return load_recognizer(self.gazetteer, self.honorifics, self.stoplist, digests)

    def recognizer_files(self) -> dict[str, Path]:
        """The recognizer's word-list files that were given, by setting name."""
        return {name: getattr(self, name) for name in _WORD_LISTS
                if getattr(self, name) is not None}

    def as_manifest_dict(self) -> dict:
        """Every setting as JSON values; a word-list path appears only when
        given, and its digest goes with the other inputs."""
        config = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in _WORD_LISTS}
        config.update({name: str(path) for name, path in self.recognizer_files().items()})
        config["window"] = [self.window.start.isoformat(), self.window.end.isoformat()]
        config["top_fraction"] = str(self.top_fraction)
        return config


class _Outputs:
    """Tracks the files a command writes, ``track(p)`` a given one and ``path(name)`` one in
    out_dir (created up front); leaving its ``with`` block by an exception removes them
    again, so failures leave nothing partial."""

    def __init__(self, out_dir: Path | None = None):
        self.created: list[Path] = []
        self.out_dir = out_dir
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)

    def track(self, p: Path) -> Path:
        self.created.append(p)
        return p

    def path(self, name: str) -> Path:
        return self.track(self.out_dir / name)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for p in self.created:
                p.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# the pipeline, one implementation per stage


class _Keyed:
    """The Sink of ingest: each windowed document's month index and keep
    score, beside what ``collect`` keeps of it."""

    def __init__(self, score: Callable[[str], float], collect: Sink):
        from array import array  # imported on use, so stats and report load less
        self.score, self.collect = score, collect
        self.months, self.scores = array("i"), array("d")

    def add_block(self, block: Block) -> None:
        self.months.fromlist([stamp.month for stamp in block.stamps])
        self.scores.fromlist(list(map(self.score, block.ids)))
        self.collect.add_block(block)

    def shard(self) -> _Keyed:
        return _Keyed(self.score, self.collect.shard())

    def held(self) -> list:
        """The columns as bytes, not arrays, since an unpickled array is
        built from a bytes copy that the load holds until it ends; in a
        list, from which merge() drops each column once appended."""
        return [self.months.tobytes(), self.scores.tobytes(), self.collect.held()]

    def merge(self, held: list) -> None:
        self.months.frombytes(held.pop(0))
        self.scores.frombytes(held.pop(0))
        self.collect.merge(held.pop())


def ingest(inputs: Sequence[Path], schema: str, window: AnalysisWindow, sampler_cfg: SamplerConfig,
           collect: Sink, report_path: Path | None = None,
           digests: dict[str, str] | None = None) -> np.ndarray:
    """The one pass over the inputs: ``collect`` takes each Block of
    windowed documents in input order, and the returned mask says which of
    those documents the keyed sampler keeps; the sampling report is
    written from it.  Large inputs are read on every usable CPU
    (DocumentReader.read).  The sha256 of an input read from a pipe goes
    into ``digests``, by path."""
    _load_stages()
    keyed = _Keyed(keep_scorer(sampler_cfg.seed), collect)
    for path in inputs:
        reader = read_documents(path, schema)
        reader.read(keyed, window)
        if reader.digest is not None and digests is not None:
            digests[str(path)] = reader.digest
    volumes, keep, kept = sample_columns(keyed.months, keyed.scores, sampler_cfg)
    if report_path is not None:
        write_sampling_report(volumes, kept, report_path)
    return keep


def build_pipeline_timelines(
    cfg: RunConfig, inputs: Sequence[Path], report_path: Path | None = None,
    digests: dict[str, str] | None = None,
) -> dict[str, Timeline]:
    """Ingest, then cut the kept documents' mentions into timelines.
    Pre-tagged mentions go straight into columns.  A raw line's time and
    text wait for the sampler, so only kept texts meet the recognizer,
    whose phrase counts then go into columns.  ``digests`` gets the sha256
    of each word list and of each input read from a pipe, by path."""
    _load_stages()
    recognizer = cfg.recognizer(digests)
    sampler_cfg = SamplerConfig(cfg.n_min, cfg.seed, cfg.underfull_policy)
    cols = MentionColumns()
    if cfg.schema == "raw":
        texts = ListSink(lambda block: zip([stamp.us for stamp in block.stamps], block.texts))
        keep = ingest(inputs, cfg.schema, cfg.window, sampler_cfg, texts, report_path, digests)
        for us, text in compress(texts.items, keep):
            cols.add(us, phrase_counts(text, recognizer).items())
        timelines = build_timelines(cols)
    else:
        keep = ingest(inputs, cfg.schema, cfg.window, sampler_cfg, cols, report_path, digests)
        timelines = build_timelines(cols, keep)
    if not timelines:
        raise DataError("no mentions found inside the analysis window")
    return timelines


def select_name_sets(cfg: RunConfig, timelines: dict[str, Timeline]) -> dict[str, set[str]]:
    """The three name filters, each intersected with the basic filter."""
    basic = set(basic_name_filter(timelines, cfg.min_mentions))
    sets: dict[str, set[str]] = {}
    counts = None
    for f in cfg.filters:
        if f == "all":
            sets[f] = basic
            continue
        counts = counts if counts is not None else yearly_counts(timelines)
        if f == "top-1000":
            sets[f] = top_k_by_year(counts, cfg.top_k) & basic
        else:
            sets[f] = top_frac_by_year(counts, cfg.top_fraction) & basic
    return sets


def detect_periods(timelines: dict[str, Timeline], method: str, grid: WeekGrid) -> list[FamePeriod]:
    """Detector map over name-sorted timelines."""
    ordered = [timelines[name] for name in sorted(timelines)]
    if method == METHOD_SPIKE:
        return [spike_period(t, grid) for t in ordered]
    return [continuity_period(t) for t in ordered]


def fame_periods(
    cfg: RunConfig, timelines: dict[str, Timeline], out: _Outputs
) -> Iterator[tuple[str, str, list[FamePeriod]]]:
    """Name sets, detection, period_filter and the cut per name filter;
    writes and yields (method, filter, name-sorted periods) for each pair."""
    name_sets = select_name_sets(cfg, timelines)
    grid = WeekGrid.for_window(cfg.window)
    for method in cfg.methods:
        detected = detect_periods(timelines, method, grid)
        valid = {p.name: p for p in period_filter(detected, cfg.window, cfg.min_duration)}
        for filter_name in cfg.filters:
            periods = [valid[n] for n in sorted(name_sets[filter_name] & valid.keys())]
            if not periods:
                raise EmptyCohort(
                    f"no fame periods survive filtering for ({method}, {filter_name})"
                )
            token = _FILTER_FILE_TOKEN[filter_name]
            rep.write_periods_csv(periods, out.path(f"periods_{method}_{token}.csv"))
            yield method, filter_name, periods


def cohort_stats(
    method: str, filter_name: str, periods: list[FamePeriod], width: int,
    settings: RunConfig | argparse.Namespace,
) -> list[rep.CohortStats]:
    """The bootstrapped statistics of each cohort of one width, with the
    seed, reps, level and tail_quantile of ``settings``: a RunConfig, or
    the parsed arguments of stats or report."""
    return [
        rep.compute_cohort_stats(method, filter_name, cohort, settings.seed, settings.reps,
                                 settings.level, settings.tail_quantile)
        for cohort in assign_cohorts(periods, width)
    ]


def _width_token(width: int) -> str:
    if width == WIDTH_3_MONTHS:
        return "3mo"
    if width == WIDTH_5_YEARS:
        return "5y"
    return f"{width}mo"


def _stats_artifacts(out: _Outputs, method: str, filter_name: str, periods: list[FamePeriod],
                     widths: tuple[int, ...], settings: RunConfig | argparse.Namespace,
                     ) -> list[rep.CohortStats]:
    """Quantile series per width; curves, fits, and bootstrap intervals on
    the widest cohorts (those feed the summary table), by cohort_stats."""
    token = _FILTER_FILE_TOKEN[filter_name]
    for width in widths[:-1]:
        rep.write_quantile_series_csv(
            assign_cohorts(periods, width),
            out.path(f"series_{method}_{token}_{_width_token(width)}.csv"),
        )
    all_stats = cohort_stats(method, filter_name, periods, widths[-1], settings)
    rep.write_quantile_series_csv(
        [cs.cohort for cs in all_stats],
        out.path(f"series_{method}_{token}_{_width_token(widths[-1])}.csv"),
        intervals={cs.cohort.label: cs.quantiles for cs in all_stats},
    )
    for cs in all_stats:
        rep.write_cumulative_curve_csv(
            cs.cohort,
            cumulative_curve(cs.cohort),
            out.path(f"curve_{method}_{token}_{cs.cohort.label}.csv"),
            cs.fit,
        )
    rep.write_fits_json(
        {cs.cohort.label: cs for cs in all_stats}, out.path(f"fits_{method}_{token}.json")
    )
    return all_stats


def _write_summary(out: _Outputs, stats: list[rep.CohortStats], config: dict,
                   inputs: Sequence[Path], digests: dict[str, str] | None = None) -> None:
    """The summary table of ``stats`` as CSV and text, and the manifest of
    ``config`` and ``inputs`` (write_manifest's digests): run and report."""
    rows = [rep.summary_row(cs) for cs in stats]
    rep.write_summary_csv(rows, out.path("summary.csv"))
    rep.write_summary_text(rows, out.path("summary.txt"))
    rep.write_manifest(config, inputs, out.path("manifest.json"), digests)


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_window(values: list[str]) -> AnalysisWindow:
    try:
        (sy, sm), (ey, em) = parse_month(values[0]), parse_month(values[1])
        return AnalysisWindow(date(sy, sm, 1), date(ey, em, 1))
    except ValueError as exc:
        raise ConfigError(f"bad --window: {exc}") from exc


def _parse_widths(raw: str) -> tuple[int, ...]:
    try:
        widths = tuple(sorted({int(w) for w in raw.split(",") if w.strip()}))
    except ValueError as exc:
        raise ConfigError(f"bad --widths {raw!r}: {exc}") from exc
    if not widths or widths[0] < 1:
        raise ConfigError(f"bad --widths {raw!r}: positive month counts required")
    return widths


def _parse_fraction(raw: str) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad fraction {raw!r}: {exc}") from exc


def _csv_list(raw: str, allowed: tuple[str, ...], what: str) -> tuple[str, ...]:
    items = tuple(s.strip() for s in raw.split(",") if s.strip())
    bad = [s for s in items if s not in allowed]
    if bad or not items:
        raise ConfigError(f"bad {what} {raw!r}; choose from {', '.join(allowed)}")
    return items


def _add_input_args(p):
    """Inputs and volume sampling: sample, periods and run."""
    p.add_argument("--input", type=Path, nargs="+", action="extend", required=True,
                   help="corpus files, read in the order given; the flag may be repeated")
    p.add_argument("--schema", choices=("raw", "pretagged"), default=RunConfig.schema)
    p.add_argument(
        "--window",
        nargs=2,
        metavar=("START", "END"),
        required=True,
        help="analysis window as two month boundaries, e.g. --window 1895-01 2011-01 "
        "(START inclusive, END exclusive)",
    )
    p.add_argument("--n-min", dest="n_min", type=int, required=True,
                   help="monthly document target (no silent default)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--underfull-policy", choices=UNDERFULL_POLICIES,
                   default=RunConfig.underfull_policy)


def _add_recognizer_args(p, gazetteer_required: bool = False):
    p.add_argument("--gazetteer", type=Path, required=gazetteer_required,
                   help="given-name list, one per line")
    p.add_argument("--honorifics", type=Path, help="honorific list (default built in)")
    p.add_argument("--stoplist", type=Path, help="capitalized stopword list (default built in)")


def _add_pipeline_args(p):
    """Name filters and detectors: periods and run."""
    p.add_argument("--methods", default=",".join(RunConfig.methods))
    p.add_argument("--filters", default=",".join(RunConfig.filters))
    p.add_argument("--min-mentions", type=int, default=RunConfig.min_mentions)
    p.add_argument("--min-duration", type=float, default=RunConfig.min_duration)
    p.add_argument("--top-k", type=int, default=RunConfig.top_k)
    p.add_argument("--top-fraction", default=str(RunConfig.top_fraction))
    _add_recognizer_args(p)


def _add_bootstrap_args(p, widths: bool):
    """Cohort statistics: stats, report and run (report has --width instead)."""
    p.add_argument("--reps", type=int, default=RunConfig.reps, help="bootstrap resamples")
    p.add_argument("--level", type=float, default=RunConfig.level)
    p.add_argument("--tail-quantile", type=float, default=RunConfig.tail_quantile)
    if widths:
        p.add_argument("--widths", default=",".join(map(str, RunConfig.cohort_widths)),
                       help="cohort widths in months; the widest gets bootstrap intervals, "
                       "curves and fits")


def _build_run_config(args) -> RunConfig:
    """RunConfig from the parsed arguments whose dest names one of its
    fields; periods has no statistics arguments and keeps their defaults."""
    settings = {f.name: getattr(args, f.name) for f in fields(RunConfig) if f.name in args}
    settings.update(
        window=_parse_window(args.window),
        methods=_csv_list(args.methods, METHODS, "--methods"),
        filters=_csv_list(args.filters, FILTERS, "--filters"),
        top_fraction=_parse_fraction(args.top_fraction),
    )
    if "widths" in args:
        settings["cohort_widths"] = _parse_widths(args.widths)
    return RunConfig(**settings)


def _cmd_synth(args) -> int:
    # imported on use: the generator and the reference oracles serve no other subcommand
    from .synth import document_to_json, generate_corpus, load_synth_spec

    spec = load_synth_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    n = write_documents(map(document_to_json, generate_corpus(spec)), args.out)
    print(f"wrote {n} documents to {args.out}")
    return 0


def _check_files(inputs: Sequence[Path], outputs: dict[str, Path | None] | None = None) -> None:
    """ConfigError, before any input is read, for an input given twice, or
    for an output of sample or extract (by flag; None when not given) that
    is the same file as an input or an earlier output: the same regular
    file by os.path.samefile when both exist, the same resolved path
    otherwise."""
    seen: list[tuple[str, Path]] = []
    for flag, path in [*(("--input", path) for path in inputs), *(outputs or {}).items()]:
        if path is None:
            continue
        for other_flag, other in seen:
            if (os.path.samefile(path, other) and path.is_file() if path.exists() and other.exists()
                    else path.resolve() == other.resolve()):
                raise ConfigError(f"{flag} {path} is the same file as {other_flag} {other}")
        seen.append((flag, path))


def _cmd_extract(args) -> int:
    if len(args.input) > 1:
        raise ConfigError(f"extract reads one --input, got {len(args.input)}")
    _check_files(args.input, {"--out": args.out})
    recognizer = load_recognizer(args.gazetteer, args.honorifics, args.stoplist)
    reader = read_documents(args.input[0], "raw")
    tagged = ListSink(lambda block: [
        record_json(doc_id, stamp.timestamp, phrase_counts(text, recognizer).items())
        for doc_id, stamp, text in block.records()])
    reader.read(tagged)
    with _Outputs() as outputs:
        n = write_documents(tagged.items, outputs.track(args.out))
    print(f"extracted mentions for {n} documents to {args.out} "
          f"({reader.stats.malformed} malformed lines skipped)")
    return 0


def _cmd_sample(args) -> int:
    _check_ranges(vars(args))
    sampler_cfg = SamplerConfig(args.n_min, args.seed, args.underfull_policy)
    window = _parse_window(args.window)
    _check_files(args.input, {"--out": args.out, "--report": args.report})
    with _Outputs() as outputs:
        out = outputs.track(args.out)
        report = outputs.track(args.report) if args.report else None
        lines = ListSink(lambda block: [
            record_json(doc_id, stamp.timestamp, payload if isinstance(payload, str) else zip(*payload))
            for doc_id, stamp, payload in block.records()])
        keep = ingest(args.input, args.schema, window, sampler_cfg, lines, report)
        n = write_documents(compress(lines.items, keep), out)
    print(f"kept {n} documents -> {args.out}")
    return 0


def _cmd_periods(args) -> int:
    cfg = _build_run_config(args)
    _check_files(args.input)
    with _Outputs(args.out_dir) as out:
        timelines = build_pipeline_timelines(cfg, args.input, out.path("sampling_report.csv"))
        n = sum(1 for _ in fame_periods(cfg, timelines, out))
    print(f"wrote {n} period files to {args.out_dir}")
    return 0


def _labelled_periods(paths: Sequence[Path]) -> dict[tuple[str, str], Path]:
    """Each periods CSV by the (method, filter) its file name gives, found
    before any is read: a name that gives none, or a second file with one
    label, is a ConfigError."""
    labelled: dict[tuple[str, str], Path] = {}
    for path in paths:
        try:
            label = _PERIODS_FILE_LABEL[path.stem]
        except KeyError:
            raise ConfigError(
                f"{path}: expected file name periods_<method>_<filter>.csv "
                f"(filters: {', '.join(_FILTER_FILE_TOKEN.values())})"
            ) from None
        if label in labelled:
            raise ConfigError(f"{labelled[label]} and {path} are both periods of {label[0]}, "
                              f"{label[1]}; give one file per method and filter")
        labelled[label] = path
    return labelled


def _read_labelled_periods(path: Path, method: str) -> list[FamePeriod]:
    """The periods of a CSV named for ``method``, which each row must have."""
    periods = rep.read_periods_csv(path)
    if not periods:
        raise EmptyCohort(f"{path}: no periods")
    mismatched = {p.method for p in periods} - {method}
    if mismatched:
        raise DataError(
            f"{path}: file is named for method {method!r} but contains "
            f"{', '.join(sorted(mismatched))} rows"
        )
    return periods


def _cmd_stats(args) -> int:
    widths = _parse_widths(args.widths)
    _check_ranges(vars(args))
    labelled = _labelled_periods(args.periods)
    with _Outputs(args.out_dir) as out:
        for (method, filter_name), path in labelled.items():
            periods = _read_labelled_periods(path, method)
            _stats_artifacts(out, method, filter_name, periods, widths, args)
    print(f"wrote {len(out.created)} statistics files to {args.out_dir}")
    return 0


def _cmd_report(args) -> int:
    _check_ranges(vars(args))
    labelled = _labelled_periods(args.periods)
    with _Outputs(args.out_dir) as out:
        stats = []
        for (method, filter_name), path in labelled.items():
            periods = _read_labelled_periods(path, method)
            stats += cohort_stats(method, filter_name, periods, args.width, args)
        config = {
            "seed": args.seed,
            "reps": args.reps,
            "level": args.level,
            "tail_quantile": args.tail_quantile,
            "width": args.width,
        }
        _write_summary(out, stats, config, args.periods)
    print(f"wrote summary for {len(args.periods)} period files to {args.out_dir}")
    return 0


def _cmd_run(args) -> int:
    cfg = _build_run_config(args)
    _check_files(args.input)
    with _Outputs(args.out_dir) as out:
        digests: dict[str, str] = {}
        timelines = build_pipeline_timelines(cfg, args.input, out.path("sampling_report.csv"), digests)
        stats = []
        for method, filter_name, periods in fame_periods(cfg, timelines, out):
            stats += _stats_artifacts(out, method, filter_name, periods, cfg.cohort_widths, cfg)
        _write_summary(out, stats, cfg.as_manifest_dict(), [*args.input, *cfg.recognizer_files().values()],
                       digests)
    print(f"wrote {len(out.created)} artifacts to {args.out_dir}")
    return 0


FORMATS_EPILOG = """\
file formats (all UTF-8; lines end in LF, CRLF or CR; an input may start with a
byte-order mark; a line that is not UTF-8, or whose JSON leaves a lone surrogate
in an id, text or name, is malformed):
  raw corpus        JSONL: {"id": str, "date": ISO-8601, "text": str}
  pretagged corpus  JSONL: {"id": str, "date": ISO-8601, "mentions": [[name, count], ...]}
                    (1 <= count < 2**63)
                    or TSV: date<TAB>name<TAB>count (one mention per line; the id
                    of line n is tsv:<first 16 hex of the file's sha256>:<n>,
                    so a TSV input must be a regular file, not a pipe)
  periods CSV       name,method,start,end,peak_date,duration_days
                    (ISO dates; fractional durations carry 3 decimals)
  series CSV        bucket_start,width,n,p50,p90,p99[,p50_lo,p50_hi,...]
  curve CSV         "# cohort=<label> n=<n> reference_slope=<alpha+1>" then x,y rows
  fits JSON         {cohort label: {alpha,d_min,n_tail,lo,hi,reps,seed}}
  summary CSV/text  method,filtering,period,p50 (lo..hi),p90 (lo..hi),p99 (lo..hi),alpha (lo..hi)
  sampling report   month,n_t,kept
  manifest JSON     config + sha256 of every input (corpus and word lists; of
                    the bytes read, for a corpus read from a pipe)
timestamps: exactly YYYY-MM-DD or YYYY-MM-DDTHH:MM[:SS[.ffffff]], the latter
  optionally with Z or +-HH:MM (converted to naive UTC); other forms are malformed
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="famespan",
        description="Measure per-name fame durations in timestamped corpora.",
        epilog=FORMATS_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a pre-tagged corpus from a generator spec")
    p.add_argument("--spec", type=Path, required=True, help="generator spec (JSON)")
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("extract", help="raw JSONL -> pre-tagged JSONL via the recognizer")
    p.add_argument("--input", type=Path, action="append", required=True, help="one raw corpus file")
    _add_recognizer_args(p, gazetteer_required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("sample", help="volume-normalize to n_min documents per month")
    _add_input_args(p)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--report", type=Path, help="write month,n_t,kept CSV here")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("periods", help="compute fame periods -> periods_<method>_<filter>.csv")
    _add_input_args(p)
    _add_pipeline_args(p)
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=_cmd_periods)

    p = sub.add_parser("stats", help="statistics artifacts for existing periods CSVs")
    p.add_argument("--periods", type=Path, nargs="+", required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_bootstrap_args(p, widths=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("report", help="summary table + manifest from periods CSVs")
    p.add_argument("--periods", type=Path, nargs="+", required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_bootstrap_args(p, widths=False)
    p.add_argument("--width", type=int, default=WIDTH_5_YEARS,
                   help="summary cohort width in months")
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("run", help="end-to-end pipeline")
    _add_input_args(p)
    _add_pipeline_args(p)
    _add_bootstrap_args(p, widths=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is not _cmd_extract:
        if "numpy" not in sys.modules:
            # no BLAS call is made (einsum("ij,ij->i") runs numpy's own loop), so an
            # OpenBLAS thread pool only adds start-up time; a value the user set wins
            os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        _load_stages()
    try:
        return args.func(args)
    except FamespanError as exc:
        print(f"famespan: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"famespan: error: {exc}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
