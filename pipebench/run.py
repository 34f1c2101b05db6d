#!/usr/bin/env python3
"""Pipeline benchmark for cellgauge.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload (xlsx_formulas, range_fill or
json_corpus) is generated from the seed under .bench_work/ and removed
afterwards. All three, as BENCHMARK.json runs them:

    for w in xlsx_formulas range_fill json_corpus; do
        python3 pipebench/run.py --workload $w --seed 1 --seconds 40 --trace 0
    done

--trace 0 runs the real CLI (``python -m cellgauge.cli corpus ...`` with
PYTHONPATH=src and ``--threads 1``) in a closed loop, one invocation at a
time, for S seconds and at least three invocations, and reports the
end-to-end metrics as medians over invocations. --trace 1 runs the CLI once
for a reference report, then alternates untraced and traced in-process
passes with one worker for S seconds and reports the per-layer metrics of
the median traced pass.

Timings are reported in reference seconds (see calibrate.py): each
invocation and each set-up sample is bracketed by a fixed calibration loop,
and its time is rescaled to the host speed at which that loop takes
calibrate.REFERENCE_S. On a shared host this takes out most of the host's
own drift, which otherwise spreads the medians of runs of the same code by
up to a half. The raw seconds are kept in the record line. One worker, because on a 2-vCPU host
two busy processes slow each other down by a varying share.

Every run checks its outputs: reports byte-identical across invocations and
passes, per-workbook values the generator knows by construction, and the
brute-force oracle (tests/oracle.py) on a seeded sample of workbooks. A
failed check prints ``"correct": false`` and exits 1.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the full record (seed,
parameters, input digest, environment, quartiles).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKERS = 1
MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_ref_s": "s",
    "formulas_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "workbooks_analyzed_share": "share",
    "formulas_parsed_share": "share",
}
# Also in the record line: the raw seconds behind the rescaled timings.
RAW_UNITS = {"wall_s": "s", "formulas_per_s": "1/s", "setup_raw_s": "s", "calibration_s": "s"}
PER_LAYER_UNITS = {
    "lexer.scan_s": "s",
    "lexer.tokens": "count",
    "lexer.tokens_per_s": "1/s",
    "parser.parse_s": "s",
    "parser.calls_per_formula": "ratio",
    "parser.failures": "count",
    "xlsx.self_s": "s",
    "xlsx.cells": "count",
    "interchange.self_s": "s",
    "interchange.cells": "count",
    "graph.build_s": "s",
    "graph.rectangles": "count",
    "graph.expanded_cells": "count",
    "graph.cells_per_rectangle": "ratio",
    "graph.reverse_edges": "count",
    "graph.dangling": "count",
    "model.classify_s": "s",
    "model.classified_cells": "count",
    "metrics.record_s": "s",
    "metrics.anchor_pairs": "count",
    "metrics.distinct_text_share": "share",
    "analytics.aggregate_s": "s",
    "analytics.histogram_s": "s",
    "analytics.correlation_s": "s",
    "reports.render_s": "s",
    "reports.bytes": "bytes",
    "cli.self_s": "s",
    "cli.other_s": "s",
    "cli.workbook_ms.p50": "ms",
    "cli.workbook_ms.tail": "ms",
    "trace.total_s": "s",
    "trace.overhead_share": "share",
}


class CheckFailed(Exception):
    pass


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    report: dict[str, bytes]


def _require(problems: list[str], what: str) -> None:
    if problems:
        shown = "; ".join(problems[:5]) + (f"; and {len(problems) - 5} more" if len(problems) > 5 else "")
        raise CheckFailed(f"{what}: {shown}")


def _read_report(out_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def _report_digest(report: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in report.items():
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def _corpus_args(workload: workloads.Workload, out_dir: Path, threads: int) -> list[str]:
    return ["corpus", str(workload.directory), "--threads", str(threads),
            "--out", str(out_dir / f"report.{workload.report_format}"), *workload.cli_args]


def run_cli(workload: workloads.Workload, out_dir: Path, threads: int) -> Invocation:
    """One CLI invocation, started by a fresh launcher so that its peak RSS is
    the largest resident set in its own process tree (see launch.py)."""
    _fresh(out_dir)
    cmd = [sys.executable, str(HERE / "launch.py"), sys.executable, "-m", "cellgauge.cli",
           *_corpus_args(workload, out_dir, threads)]
    stderr_path = out_dir.parent / "cli.stderr"
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_cli_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=stderr, start_new_session=True)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            output, _ = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    outcome = json.loads(output) if proc.returncode == 0 else {"returncode": proc.returncode}
    if outcome["returncode"] != 0:
        tail = stderr_path.read_text(errors="replace")[-2000:]
        raise CheckFailed(f"cellgauge corpus exited {outcome['returncode']}: {tail}")
    return Invocation(outcome["wall_s"], outcome["peak_rss_kb"] / 1024, _read_report(out_dir))


def setup_time() -> float:
    """Wall time of a fresh interpreter importing cellgauge.cli, which every
    invocation pays before it reads a file."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import cellgauge.cli"], cwd=ROOT, env=_cli_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    # A blocking wait: Popen.wait(timeout) polls with sleeps of up to 50 ms,
    # which would quantize the measurement.
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        status = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - started
    if status != 0:
        raise CheckFailed(f"import cellgauge.cli exited {status}")
    return elapsed


def run_in_process(workload: workloads.Workload, out_dir: Path) -> int:
    from cellgauge import cli

    _fresh(out_dir)
    return cli.main(_corpus_args(workload, out_dir, 1))


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def check_report(report: dict[str, bytes], workload: workloads.Workload, oracle: bool) -> dict[str, dict]:
    records = checks.read_records(report, workload.report_format)
    _require(checks.check_expected(records, workload), "known values")
    if oracle:
        _require(checks.check_oracle(records, workload, ROOT), "oracle")
    return records


def end_to_end(workload, work_dir, threads, seconds, record) -> tuple[dict, int]:
    per_run: dict[str, list[float]] = {name: [] for name in (*END_TO_END_UNITS, *RAW_UNITS)}
    reference = None
    setup_time()  # untimed: writes the bytecode caches every later interpreter reuses
    started = time.perf_counter()
    calibration = per_run["calibration_s"]
    calibration.append(calibrate.loop_seconds())
    # Rounds of set-up sample, invocation and calibration loop, so that a
    # calibration pass lies on either side of each invocation. Start another
    # round only if it should end within the window.
    while (len(per_run["wall_s"]) < MIN_INVOCATIONS
           or (time.perf_counter() - started) * (len(per_run["wall_s"]) + 1) / len(per_run["wall_s"]) <= seconds):
        setup_s = setup_time()
        run = run_cli(workload, work_dir / "out", threads)
        calibration.append(calibrate.loop_seconds())
        per_run["setup_raw_s"].append(setup_s)
        per_run["setup_s"].append(calibrate.rescale(setup_s, calibration[-2], calibration[-2]))
        wall_ref_s = calibrate.rescale(run.wall_s, calibration[-2], calibration[-1])
        digest = _report_digest(run.report)
        if reference is None:
            reference = digest
            records = check_report(run.report, workload, oracle=True)
            formulas = int(sum(row["formulaCells"] for row in records.values()))
            failures = int(sum(row["parseFailures"] for row in records.values()))
            analyzed = len(set(records) & set(workload.expected)) / len(workload.expected)
        elif digest != reference:
            raise CheckFailed(f"report of invocation {len(per_run['wall_s']) + 1} differs from the first")
        per_run["wall_s"].append(run.wall_s)
        per_run["formulas_per_s"].append(formulas / run.wall_s)
        per_run["wall_ref_s"].append(wall_ref_s)
        per_run["formulas_per_ref_s"].append(formulas / wall_ref_s)
        per_run["peak_rss_mb"].append(run.peak_rss_mb)
        per_run["workbooks_analyzed_share"].append(analyzed)
        per_run["formulas_parsed_share"].append(1 - failures / formulas)
    stats = {name: summarize(values) for name, values in per_run.items()}
    record["report_sha256"] = reference
    record["shares"] = {"failed_share": 1 - analyzed, "parse_failed_share": failures / formulas,
                        "formula_cells": formulas, "parse_failures": failures}
    record["end_to_end"] = {name: {**stats[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    record["raw"] = {name: {**stats[name], "unit": unit} for name, unit in RAW_UNITS.items()}
    record["reference_s"] = calibrate.REFERENCE_S
    record["samples"] = {name: per_run[name] for name in ("wall_s", "calibration_s", "setup_raw_s")}
    metrics = {name: stats[name]["median"] for name in END_TO_END_UNITS}
    return metrics, len(per_run["wall_s"]) * len(workload.expected)


def per_layer(workload, work_dir, threads, seconds, record) -> tuple[dict, int]:
    reference = run_cli(workload, work_dir / "out", threads)
    check_report(reference.report, workload, oracle=True)
    expected_digest = _report_digest(reference.report)

    def same_report(out_dir: Path, what: str) -> dict[str, bytes]:
        report = _read_report(out_dir)
        if _report_digest(report) != expected_digest:
            raise CheckFailed(f"{what} report differs from the CLI report")
        return report

    untraced: list[float] = []
    passes: list[spans.PassTrace] = []
    started = time.perf_counter()
    # Start another untraced/traced pair only if it should end within the window.
    while not passes or (time.perf_counter() - started) * (len(passes) + 1) / len(passes) <= seconds:
        begin = time.perf_counter()
        status = run_in_process(workload, work_dir / "untraced")
        untraced.append(time.perf_counter() - begin)
        if status != 0:
            raise CheckFailed(f"in-process corpus run exited {status}")
        same_report(work_dir / "untraced", "untraced one-worker")
        traced = spans.traced_pass(lambda: run_in_process(workload, work_dir / "traced"))
        report = same_report(work_dir / "traced", "traced one-worker")
        problem = spans.accounting_error(traced)
        if problem:
            raise CheckFailed(problem)
        if passes and traced.counts != passes[0].counts:
            raise CheckFailed("layer counters differ between traced passes")
        passes.append(traced)

    chosen = sorted(passes, key=lambda p: p.total_s)[(len(passes) - 1) // 2]
    values, details = spans.layer_metrics(chosen)
    values["reports.bytes"] = sum(len(data) for data in report.values())
    values["trace.overhead_share"] = statistics.median(p.wall_s for p in passes) / statistics.median(untraced) - 1
    details["passes"] = len(passes)
    details["untraced_wall_s"] = untraced
    details["traced_total_s"] = [p.total_s for p in passes]
    record["per_layer"] = {name: {"value": values[name], "unit": PER_LAYER_UNITS[name]} for name in PER_LAYER_UNITS}
    record["trace"] = details
    return {name: values[name] for name in PER_LAYER_UNITS}, (1 + 2 * len(passes)) * len(workload.expected)


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads: int) -> dict:
    import cellgauge

    sources = hashlib.sha256()
    for path in sorted((SRC / "cellgauge").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": threads,
        "backend": getattr(cellgauge, "BACKEND", None),
    }


def _print_table(record: dict) -> None:
    print(f"pipebench {record['workload']} seed={record['seed']} workers={record['environment']['workers']}")
    for name, stat in {**record.get("end_to_end", {}), **record.get("raw", {})}.items():
        print(f"  {name:26} {stat['median']:.6g} {stat['unit']}  (q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, "
              f"n={stat['n']})")
    for name, value in record.get("shares", {}).items():
        print(f"  {name:26} {value:.6g}")
    for name, metric in record.get("per_layer", {}).items():
        print(f"  {name:26} {metric['value']:.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cellgauge" / "cli.py").is_file():
        print(f"pipebench: no cellgauge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    threads = WORKERS
    work_dir = _fresh(WORK / f"{args.workload}-{args.seed}-{os.getpid()}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(threads)}
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        started = time.perf_counter()
        workload = workloads.generate(args.workload, work_dir / "corpus", args.seed)
        record.update(params=workload.params, cli_args=list(workload.cli_args),
                      input_sha256=workload.digest(), generate_s=time.perf_counter() - started)
        try:
            if args.trace:
                values, attempted = per_layer(workload, work_dir, threads, args.seconds, record)
                units = PER_LAYER_UNITS
            else:
                values, attempted = end_to_end(workload, work_dir, threads, args.seconds, record)
                units = END_TO_END_UNITS
        except CheckFailed as exc:
            print(f"pipebench: check failed: {exc}", file=sys.stderr)
            record["check_failed"] = str(exc)
            attempted = len(workload.expected)
            result.update(correct=False, attempted=attempted, failed=attempted)
        else:
            result.update(attempted=attempted,
                          metrics={name: {"value": values[name], "unit": units[name]} for name in units})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    _print_table(record)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
