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
  fixture  write a bundled disagreement fixture as a timelines TSV

All randomness flows from one --seed; stage seeds are derived, so equal
(config, seed, inputs) produce byte-identical artifacts.

Exit codes: 0 ok, 2 config error, 3 data error, 4 statistics error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from datetime import date
from fractions import Fraction
from itertools import compress, starmap
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import report as rep
from .corpus_io import (
    AnalysisWindow,
    Block,
    Document,
    as_document,
    document_to_json,
    read_documents,
    write_documents,
)
from .dates import parse_month
from .errors import ConfigError, DataError, EmptyCohort, FamespanError
from .fixtures import FIXTURE_KINDS, fixture_timeline
from .name_extract import RecognizerConfig, load_recognizer, mentions_of
from .peaks import (
    METHOD_SPIKE,
    METHODS,
    FamePeriod,
    WeekGrid,
    continuity_period,
    period_filter,
    spike_period,
)
from .sampler import (
    UNDERFULL_POLICIES,
    SamplerConfig,
    keep_scorer,
    sample_columns,
    write_sampling_report,
)
from .stats import WIDTH_3_MONTHS, WIDTH_5_YEARS, assign_cohorts, cumulative_curve
from .timeline import (
    MentionColumns,
    Timeline,
    basic_name_filter,
    build_timelines,
    top_frac_by_year,
    top_k_by_year,
    write_timelines_tsv,
    yearly_counts,
)

FILTERS = ("all", "top-1000", "top-0.1%")
_FILTER_FILE_TOKEN = {"all": "all", "top-1000": "top-1000", "top-0.1%": "top-0.1pct"}
_PERIODS_FILE_LABEL = {
    f"periods_{m}_{token}": (m, f) for m in METHODS for f, token in _FILTER_FILE_TOKEN.items()
}

_WORD_LISTS = ("gazetteer", "honorifics", "stoplist")


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

    def recognizer(self) -> RecognizerConfig | None:
        if self.gazetteer is None:
            return None
        return load_recognizer(self.gazetteer, self.honorifics, self.stoplist)

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
    """Tracks the files a command writes; leaving its ``with`` block by an
    exception removes them again, so failures leave nothing partial."""

    def __init__(self):
        self.created: list[Path] = []

    def track(self, p: Path) -> Path:
        self.created.append(p)
        return p

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for p in self.created:
                p.unlink(missing_ok=True)


class _ArtifactDir(_Outputs):
    """Outputs named inside out_dir, which is created up front."""

    def __init__(self, out_dir: Path):
        super().__init__()
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        return self.track(self.out_dir / name)


# ---------------------------------------------------------------------------
# the pipeline, one implementation per stage


def ingest(inputs: Sequence[Path], schema: str, window: AnalysisWindow, sampler_cfg: SamplerConfig,
           collect: Callable[[Block], None], report_path: Path | None = None) -> np.ndarray:
    """The one pass over the inputs: ``collect`` sees each Block of
    windowed documents in input order, and the returned mask says which of
    those documents the keyed sampler keeps; the sampling report is
    written from it."""
    from array import array  # imported on use, so stats and report load less
    months, scores = array("i"), array("d")
    score = keep_scorer(sampler_cfg.seed)
    for path in inputs:
        for block in read_documents(path, schema).blocks(window):
            months.fromlist([stamp.month for stamp in block.stamps])
            scores.fromlist(list(map(score, block.ids)))
            collect(block)
    volumes, keep, kept_counts = sample_columns(months, scores, sampler_cfg)
    if report_path is not None:
        write_sampling_report(volumes, kept_counts, report_path)
    return keep


def build_pipeline_timelines(
    cfg: RunConfig, inputs: Sequence[Path], report_path: Path | None = None
) -> dict[str, Timeline]:
    """Ingest, then cut the kept documents' mentions into timelines.  Raw
    documents wait for the sampler, so only kept ones meet the recognizer;
    pre-tagged mentions go straight into columns."""
    recognizer = cfg.recognizer()
    sampler_cfg = SamplerConfig(cfg.n_min, cfg.seed, cfg.underfull_policy)
    if cfg.schema == "raw":
        docs: list[Document] = []
        keep = ingest(inputs, cfg.schema, cfg.window, sampler_cfg,
                      lambda block: docs.extend(starmap(as_document, block.records())), report_path)
        timelines = build_timelines(m for d in compress(docs, keep) for m in mentions_of(d, recognizer))
    else:
        cols = MentionColumns()
        keep = ingest(inputs, cfg.schema, cfg.window, sampler_cfg, cols.add_block, report_path)
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
    cfg: RunConfig, timelines: dict[str, Timeline], art: _ArtifactDir
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
            rep.write_periods_csv(periods, art.path(f"periods_{method}_{token}.csv"))
            yield method, filter_name, periods


def _bootstrap(src) -> tuple[int, int, float, float]:
    """(seed, reps, level, tail_quantile) of a RunConfig or of parsed
    arguments, in the order report.compute_cohort_stats takes them."""
    return src.seed, src.reps, src.level, src.tail_quantile


def cohort_stats(
    method: str,
    filter_name: str,
    periods: list[FamePeriod],
    width: int,
    bootstrap: tuple[int, int, float, float],
) -> list[rep.CohortStats]:
    """The bootstrapped statistics of each cohort of one width."""
    return [
        rep.compute_cohort_stats(method, filter_name, cohort, *bootstrap)
        for cohort in assign_cohorts(periods, width)
    ]


def _width_token(width: int) -> str:
    if width == WIDTH_3_MONTHS:
        return "3mo"
    if width == WIDTH_5_YEARS:
        return "5y"
    return f"{width}mo"


def _stats_artifacts(
    art: _ArtifactDir,
    method: str,
    filter_name: str,
    periods: list[FamePeriod],
    widths: tuple[int, ...],
    bootstrap: tuple[int, int, float, float],
) -> list[rep.CohortStats]:
    """Quantile series per width; curves, fits, and bootstrap intervals on
    the widest cohorts (those feed the summary table)."""
    token = _FILTER_FILE_TOKEN[filter_name]
    for width in widths[:-1]:
        rep.write_quantile_series_csv(
            assign_cohorts(periods, width),
            art.path(f"series_{method}_{token}_{_width_token(width)}.csv"),
        )
    all_stats = cohort_stats(method, filter_name, periods, widths[-1], bootstrap)
    rep.write_quantile_series_csv(
        [cs.cohort for cs in all_stats],
        art.path(f"series_{method}_{token}_{_width_token(widths[-1])}.csv"),
        intervals={cs.cohort.label: cs.quantiles for cs in all_stats},
    )
    for cs in all_stats:
        rep.write_cumulative_curve_csv(
            cs.cohort,
            cumulative_curve(cs.cohort),
            art.path(f"curve_{method}_{token}_{cs.cohort.label}.csv"),
            cs.fit,
        )
    rep.write_fits_json(
        {cs.cohort.label: cs for cs in all_stats}, art.path(f"fits_{method}_{token}.json")
    )
    return all_stats


def run_pipeline(cfg: RunConfig, inputs: Sequence[Path], out_dir: Path) -> list[Path]:
    """End-to-end run; returns the artifact paths (removed again on error)."""
    with _ArtifactDir(Path(out_dir)) as art:
        timelines = build_pipeline_timelines(cfg, inputs, art.path("sampling_report.csv"))
        summary_rows = []
        for method, filter_name, periods in fame_periods(cfg, timelines, art):
            stats = _stats_artifacts(
                art, method, filter_name, periods, cfg.cohort_widths, _bootstrap(cfg)
            )
            summary_rows.extend(rep.summary_row(cs) for cs in stats)
        rep.write_summary_csv(summary_rows, art.path("summary.csv"))
        rep.write_summary_text(summary_rows, art.path("summary.txt"))
        rep.write_manifest(
            cfg.as_manifest_dict(),
            [*inputs, *cfg.recognizer_files().values()],
            art.path("manifest.json"),
        )
    return art.created


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
    p.add_argument("--input", type=Path, nargs="+", required=True)
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
    from .synth import generate_corpus, load_synth_spec

    spec = load_synth_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    n = write_documents(generate_corpus(spec), args.out)
    print(f"wrote {n} documents to {args.out}")
    return 0


def _cmd_extract(args) -> int:
    recognizer = load_recognizer(args.gazetteer, args.honorifics, args.stoplist)

    def tagged(docs: Iterable[Document]):
        for doc in docs:
            mentions = tuple((m.name, m.count) for m in mentions_of(doc, recognizer))
            yield Document(id=doc.id, timestamp=doc.timestamp, mentions=mentions)

    reader = read_documents(args.input, "raw")
    with _Outputs() as outputs:
        n = write_documents(tagged(reader), outputs.track(args.out))
    print(f"extracted mentions for {n} documents to {args.out} "
          f"({reader.stats.malformed} malformed lines skipped)")
    return 0


def _cmd_sample(args) -> int:
    sampler_cfg = SamplerConfig(args.n_min, args.seed, args.underfull_policy)
    window = _parse_window(args.window)
    with _Outputs() as outputs:
        out = outputs.track(args.out)
        report = outputs.track(args.report) if args.report else None
        lines: list[str] = []
        keep = ingest(args.input, args.schema, window, sampler_cfg,
                      lambda block: lines.extend(map(document_to_json, starmap(as_document, block.records()))),
                      report)
        n = write_documents(compress(lines, keep), out)
    print(f"kept {n} documents -> {args.out}")
    return 0


def _cmd_periods(args) -> int:
    cfg = _build_run_config(args)
    with _ArtifactDir(Path(args.out_dir)) as art:
        timelines = build_pipeline_timelines(cfg, args.input, art.path("sampling_report.csv"))
        if args.timelines:
            write_timelines_tsv(timelines, art.path(args.timelines))
        n = sum(1 for _ in fame_periods(cfg, timelines, art))
    print(f"wrote {n} period files to {args.out_dir}")
    return 0


def _load_labelled_periods(path: Path) -> tuple[str, str, list[FamePeriod]]:
    try:
        method, filter_name = _PERIODS_FILE_LABEL[path.stem]
    except KeyError:
        raise ConfigError(
            f"{path}: expected file name periods_<method>_<filter>.csv "
            f"(filters: {', '.join(_FILTER_FILE_TOKEN.values())})"
        ) from None
    periods = rep.read_periods_csv(path)
    if not periods:
        raise EmptyCohort(f"{path}: no periods")
    mismatched = {p.method for p in periods} - {method}
    if mismatched:
        raise DataError(
            f"{path}: file is named for method {method!r} but contains "
            f"{', '.join(sorted(mismatched))} rows"
        )
    return method, filter_name, periods


def _cmd_stats(args) -> int:
    widths = _parse_widths(args.widths)
    with _ArtifactDir(Path(args.out_dir)) as art:
        for path in args.periods:
            method, filter_name, periods = _load_labelled_periods(Path(path))
            _stats_artifacts(art, method, filter_name, periods, widths, _bootstrap(args))
    print(f"wrote {len(art.created)} statistics files to {args.out_dir}")
    return 0


def _cmd_report(args) -> int:
    with _ArtifactDir(Path(args.out_dir)) as art:
        summary_rows = []
        for path in args.periods:
            method, filter_name, periods = _load_labelled_periods(Path(path))
            stats = cohort_stats(method, filter_name, periods, args.width, _bootstrap(args))
            summary_rows.extend(rep.summary_row(cs) for cs in stats)
        config = {
            "seed": args.seed,
            "reps": args.reps,
            "level": args.level,
            "tail_quantile": args.tail_quantile,
            "width": args.width,
        }
        rep.write_summary_csv(summary_rows, art.path("summary.csv"))
        rep.write_summary_text(summary_rows, art.path("summary.txt"))
        rep.write_manifest(config, args.periods, art.path("manifest.json"))
    print(f"wrote summary for {len(args.periods)} period files to {args.out_dir}")
    return 0


def _cmd_run(args) -> int:
    cfg = _build_run_config(args)
    created = run_pipeline(cfg, args.input, Path(args.out_dir))
    print(f"wrote {len(created)} artifacts to {args.out_dir}")
    return 0


def _cmd_fixture(args) -> int:
    t = fixture_timeline(args.kind)
    write_timelines_tsv({t.name: t}, args.out)
    print(f"wrote fixture {args.kind} to {args.out}")
    return 0


FORMATS_EPILOG = """\
file formats (all UTF-8, LF newlines; an input may start with a byte-order mark):
  raw corpus        JSONL: {"id": str, "date": ISO-8601, "text": str}
  pretagged corpus  JSONL: {"id": str, "date": ISO-8601, "mentions": [[name, count], ...]}
                    (1 <= count < 2**63)
                    or TSV: date<TAB>name<TAB>count (one mention per line; the id
                    of line n is tsv:<first 16 hex of the file's sha256>:<n>)
  periods CSV       name,method,start,end,peak_date,duration_days
                    (ISO dates; fractional durations carry 3 decimals)
  series CSV        bucket_start,width,n,p50,p90,p99[,p50_lo,p50_hi,...]
  curve CSV         "# cohort=<label> n=<n> reference_slope=<alpha+1>" then x,y rows
  fits JSON         {cohort label: {alpha,d_min,n_tail,lo,hi,reps,seed}}
  summary CSV/text  method,filtering,period,p50 (lo..hi),p90 (lo..hi),p99 (lo..hi),alpha (lo..hi)
  sampling report   month,n_t,kept
  manifest JSON     config + sha256 of every input (corpus and word lists)
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
    p.add_argument("--input", type=Path, required=True)
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
    p.add_argument("--timelines", help="also persist timelines TSV under this name")
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

    p = sub.add_parser("fixture", help="write a bundled disagreement fixture as timelines TSV")
    p.add_argument("--kind", choices=FIXTURE_KINDS, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_fixture)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
