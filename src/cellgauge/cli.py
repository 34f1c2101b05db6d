"""Command-line front end: per-file analysis and corpus runs.

Exit codes: 0 ok, 1 internal error, 2 bad input, 3 bad arguments (including
a report file that cannot be opened).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import math
import os
import sys
from pathlib import Path

from .analytics import UNIT_AXIS_METRICS, NoDataError, aggregate, correlation_matrix, histogram
from .graph import build_graph
from .interchange import SchemaError, path_text, read_interchange_file
from .metrics import (
    DEFAULT_CONDITIONAL_FUNCTIONS,
    METRIC_IDS,
    MetricRecord,
    compute_record,
)
# classify_cells is not called here; the benchmark's tracer (pipebench/spans.py)
# wraps it under this name, so it stays importable from this module.
from .model import Workbook, classify_cells
from .reports import render_report, report_document, write_report
from .xlsx import XlsxError, read_xlsx

logger = logging.getLogger("cellgauge")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_ARGS = 3

_SKIP_EXTENSIONS = {".xls", ".ods"}  # legacy formats: logged and counted, never read


class BadInputError(Exception):
    pass


class ReportFileError(Exception):
    """A report file that cannot be opened for writing (a bad --out)."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; bad arguments are 3 here
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_ARGS, f"{self.prog}: error: {message}\n")


def load_workbook(path: str | Path, input_format: str | None = None) -> Workbook:
    """Read a workbook, auto-detecting the format from the extension."""
    path = Path(path)
    fmt = input_format
    if fmt is None:
        suffix = path.suffix.lower()
        if suffix == ".xlsx":
            fmt = "xlsx"
        elif suffix == ".json":
            fmt = "json"
        else:
            raise BadInputError(f"cannot determine input format of {path} (use --input-format)")
    if fmt == "xlsx":
        return read_xlsx(path)
    return read_interchange_file(path)


def analyze_workbook(
    workbook: Workbook,
    *,
    conditional_functions: frozenset[str] = DEFAULT_CONDITIONAL_FUNCTIONS,
    workbook_id: str | None = None,
) -> MetricRecord:
    return compute_record(
        workbook,
        build_graph(workbook),
        conditional_functions=conditional_functions,
        workbook_id=workbook_id,
    )


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while one file is read and analyzed.

    A workbook's trees, cells and graph are tens of thousands of tracked
    objects and no reference cycles, so collections during that work
    traverse them again and again and free nothing; the collector runs
    between files instead. It is turned back on only if it was on, so a
    caller that had turned it off keeps it off. This relies on the work
    creating no reference cycles, which would otherwise pile up between
    collections.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _parse_conditional_set(option: str | None) -> frozenset[str]:
    if option is None:
        return DEFAULT_CONDITIONAL_FUNCTIONS
    return frozenset(name.strip().upper() for name in option.split(",") if name.strip())


# (absolute path, relative path, conditional function names) of one file,
# and its outcome: ("ok", relative, record) or ("error", relative, message).
_Task = tuple[str, str, tuple[str, ...]]
_Outcome = tuple[str, str, object]


def _corpus_worker(args: _Task) -> _Outcome:
    path, relative, conditional = args
    try:
        # The workbook is freed before the collector is back on, so the
        # next collection has only the record left to traverse.
        with _collector_paused():
            record = analyze_workbook(
                load_workbook(path),
                conditional_functions=frozenset(conditional),
                workbook_id=relative,
            )
        return ("ok", relative, record)
    except Exception as exc:  # one bad file must never end a corpus run
        return ("error", relative, f"{type(exc).__name__}: {exc}")


_CHUNK = 8  # at most this many files per pool task


def _corpus_chunk(tasks: list[_Task]) -> list[_Outcome]:
    return [_corpus_worker(task) for task in tasks]


def _run_pool(tasks: list[_Task], degree: int) -> list[_Outcome]:
    """The outcome of every task, in order, from a pool of `degree` workers.

    A worker that dies (killed for memory, say) breaks the pool and loses
    the chunks it had not finished; the outcomes already returned are kept.
    Each chunk holds ceil(n / (4 * degree)) of the n files, so each worker
    gets about four, but never more than `_CHUNK`: a small corpus still
    reaches every worker, and a large one keeps the cost per task low.
    Workers take chunks in order, so the chunk that killed one is as a rule
    among the first `degree` unfinished ones: each of their files is rerun
    alone in a fresh worker, and the other unfinished chunks in a fresh
    pool. Each round retires at least `degree` chunks, so a crash the
    guess missed is caught in a later round.
    """
    # Imported here, not at the top: a --threads 1 run never starts a pool
    # and so never pays for importing multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    size = min(_CHUNK, math.ceil(len(tasks) / (4 * degree)))
    chunks = [tasks[i : i + size] for i in range(0, len(tasks), size)]
    results: list[list[_Outcome] | None] = [None] * len(chunks)
    pending = list(range(len(chunks)))
    while pending:
        with ProcessPoolExecutor(max_workers=degree) as pool:
            futures = [(index, pool.submit(_corpus_chunk, chunks[index])) for index in pending]
            for index, future in futures:
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    pass
        unfinished = [index for index in pending if results[index] is None]
        suspects, pending = unfinished[:degree], unfinished[degree:]
        for index in suspects:
            results[index] = [_run_alone(task) for task in chunks[index]]
    return [outcome for result in results for outcome in result]  # type: ignore[union-attr]


def _run_alone(task: _Task) -> _Outcome:
    """The outcome of one task in a worker of its own; a file that kills that
    worker too is a failure like any unreadable file."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(_corpus_worker, task).result()
    except BrokenProcessPool as exc:
        return ("error", task[1], f"{type(exc).__name__}: {exc}")


def _write_sections(sections: list[tuple[str, object]], fmt: str, out: Path | None) -> None:
    """Write the (label, payload) reports, the records first. With `out`, the
    records go to it and every other section to a file named after it and
    its label; without, all go to stdout: CSV sections separated by one blank
    line, JSON sections as one object keyed by label (a lone one as is)."""
    if out is not None:
        for label, payload in sections:
            path = out if label == "records" else out.with_name(f"{out.stem}.{label}.{fmt}")
            try:
                report = open(path, "w", encoding="utf-8", newline="")
            except OSError as exc:
                raise ReportFileError(f"cannot open report file {path}: {exc.strerror or exc}") from None
            with report:
                write_report(payload, fmt, report)
    elif fmt == "csv" or len(sections) == 1:
        sys.stdout.write("\n".join(render_report(payload, fmt) for _, payload in sections))
    else:
        json.dump({label: report_document(payload) for label, payload in sections}, sys.stdout, indent=2)
        sys.stdout.write("\n")


def cmd_analyze(args: argparse.Namespace) -> int:
    conditional = _parse_conditional_set(args.conditional_functions)
    with _collector_paused():
        try:
            workbook = load_workbook(args.file, args.input_format)
        except (XlsxError, SchemaError, BadInputError, OSError) as exc:
            logger.error("cannot read %s: %s", args.file, exc)
            return EXIT_BAD_INPUT
        record = analyze_workbook(workbook, conditional_functions=conditional)
    _write_sections([("records", record)], args.format, Path(args.out) if args.out else None)
    return EXIT_OK


def _scan_paths(root: Path) -> tuple[list[tuple[str, str]], int]:
    """(analyzable files as (absolute, relative-posix), skipped legacy count)."""
    selected: list[tuple[str, str]] = []
    legacy_skips = 0
    for path in root.rglob("*"):
        if not path.is_file():
            continue
        suffix = path.suffix.lower()
        if suffix in (".xlsx", ".json"):
            selected.append((str(path), path_text(path.relative_to(root).as_posix())))
        elif suffix in _SKIP_EXTENSIONS:
            legacy_skips += 1
            logger.warning("skipping legacy spreadsheet format: %s", path)
    selected.sort(key=lambda pair: pair[1])
    return selected, legacy_skips


def cmd_corpus(args: argparse.Namespace) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        logger.error("not a directory: %s", root)
        return EXIT_BAD_INPUT
    out = Path(args.out) if args.out else None
    if out is not None and not out.parent.is_dir():
        # Fail before the analysis rather than after it.
        raise ReportFileError(f"cannot open report file {out}: no directory {out.parent}")
    conditional = _parse_conditional_set(args.conditional_functions)
    paths, legacy_skips = _scan_paths(root)
    tasks = [(path, relative, tuple(sorted(conditional))) for path, relative in paths]
    # Never more workers than files: a pool may start every worker up front.
    degree = min(args.threads or os.cpu_count() or 1, len(tasks))
    if degree > 1:
        outcomes = _run_pool(tasks, degree)
    else:
        outcomes = [_corpus_worker(task) for task in tasks]

    records: list[MetricRecord] = []
    failures = 0
    for status, relative, payload in outcomes:
        if status == "ok":
            records.append(payload)  # type: ignore[arg-type]
        else:
            failures += 1
            logger.warning("skipping %s: %s", relative, payload)
    if not records:
        logger.error("no readable workbooks under %s", root)
        return EXIT_BAD_INPUT
    if failures or legacy_skips:
        logger.warning("skipped %d unreadable / %d legacy files", failures, legacy_skips)

    sections: list[tuple[str, object]] = [("records", records)]
    if args.summary:
        sections.append(("summary", aggregate(records)))
    if args.histogram:
        try:
            binned = histogram(records, args.histogram, args.bins, args.range)
            sections.append((f"histogram.{args.histogram}", binned))
        except NoDataError as exc:
            logger.warning("histogram skipped: %s", exc)
    if args.correlate:
        sections.append(("correlation", correlation_matrix(records, method=args.correlation_method)))
    _write_sections(sections, args.format, out)
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cellgauge",
        description="Spreadsheet complexity analyzer: formula metrics, dependency graphs, corpus analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write the report to this path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument(
            "--conditional-functions",
            metavar="NAMES",
            help="comma-separated function names counted as conditionals "
            f"(default: {','.join(sorted(DEFAULT_CONDITIONAL_FUNCTIONS))})",
        )
        p.add_argument("--quiet", action="store_true", help="suppress warnings")

    p_analyze = sub.add_parser("analyze", help="analyze a single workbook")
    p_analyze.add_argument("file")
    p_analyze.add_argument(
        "--input-format", choices=("xlsx", "json"), help="override extension-based detection"
    )
    common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_corpus = sub.add_parser("corpus", help="analyze every workbook under a directory")
    p_corpus.add_argument("directory")
    p_corpus.add_argument("--summary", action="store_true", help="also emit corpus-level means")
    p_corpus.add_argument(
        "--histogram", metavar="METRIC", choices=METRIC_IDS, help="also emit a histogram of METRIC"
    )
    p_corpus.add_argument("--bins", type=_count_option, default=20, help="histogram bin count (default %(default)s)")
    p_corpus.add_argument(
        "--range",
        type=_range_option,
        metavar="LO,HI",
        help=f"fixed histogram range (default: [0,1] for {' and '.join(UNIT_AXIS_METRICS)}, else observed min..max)",
    )
    p_corpus.add_argument("--correlate", action="store_true", help="also emit the metric correlation matrix")
    p_corpus.add_argument(
        "--correlation-method", choices=("pearson", "spearman"), default="pearson"
    )
    p_corpus.add_argument(
        "--threads",
        type=_count_option,
        help="worker processes (default: all cores)",
    )
    common(p_corpus)
    p_corpus.set_defaults(func=cmd_corpus)
    return parser


def _count_option(text: str) -> int:
    """--bins and --threads: an integer of at least 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer") from None
    if count < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return count


def _range_option(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected LO,HI")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("expected two numbers") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError("range bounds must be finite")
    if not hi > lo:
        raise argparse.ArgumentTypeError("range must be ascending")
    return lo, hi


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    # The package logger gets its own handler for this run only, so the
    # caller's logging setup is left as it was.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("cellgauge: %(levelname)s: %(message)s"))
    level, propagate = logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(logging.ERROR if args.quiet else logging.WARNING)
    logger.propagate = False
    try:
        return args.func(args)
    except (XlsxError, SchemaError, BadInputError) as exc:
        logger.error("%s", exc)
        return EXIT_BAD_INPUT
    except ReportFileError as exc:
        logger.error("%s", exc)
        return EXIT_BAD_ARGS
    except BrokenPipeError:
        return EXIT_OK
    except Exception:  # pragma: no cover - last-resort diagnostics
        logger.exception("internal error")
        return EXIT_INTERNAL
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        logger.propagate = propagate


if __name__ == "__main__":
    sys.exit(main())
