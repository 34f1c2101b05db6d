"""CLI behavior: exit codes, outputs, corpus runs, artifacts."""

from __future__ import annotations

import csv
import gc
import io
import json
import logging
import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

from cellgauge.cli import main
from cellgauge.graph import build_graph
from cellgauge.interchange import read_interchange_file
from cellgauge.metrics import compute_record
from cellgauge.reports import render_report

from .genutil import write_corpus

FIXTURES = Path(__file__).parent / "fixtures"


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the process pool with one that runs each task in-process as it
    is submitted, so no worker is ever started; records the requested pool
    sizes and the arguments of every submitted task."""
    import concurrent.futures

    record = {"sizes": [], "submitted": []}

    class InlinePool:
        def __init__(self, max_workers):
            record["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            record["submitted"].append(args)
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return record


class TestAnalyze:
    def test_json_record_matches_engine(self, capsys):
        code, out, _ = run(["analyze", str(FIXTURES / "g1.json"), "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        workbook = read_interchange_file(FIXTURES / "g1.json")
        expected = json.loads(
            render_report([compute_record(workbook, build_graph(workbook))], "json")
        )
        assert payload == expected

    def test_csv_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run(
            ["analyze", str(FIXTURES / "g1.json"), "--out", str(target)], capsys
        )
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8") == (FIXTURES / "g1_report.csv").read_text(
            encoding="utf-8"
        )

    def test_missing_file_is_bad_input(self, capsys):
        code, _, err = run(["analyze", "no-such-file.xlsx"], capsys)
        assert code == 2
        assert err

    def test_unknown_extension_is_bad_input(self, capsys, tmp_path):
        stray = tmp_path / "file.txt"
        stray.write_text("x")
        code, _, _ = run(["analyze", str(stray)], capsys)
        assert code == 2

    def test_utf8_bom_is_ignored(self, capsys, tmp_path):
        plain = (FIXTURES / "g1.json").read_bytes()
        (tmp_path / "bom").mkdir()
        marked = tmp_path / "bom" / "g1.json"
        marked.write_bytes(b"\xef\xbb\xbf" + plain)
        for report_format in ("csv", "json"):
            argv = ["analyze", "--format", report_format]
            expected = run([*argv, str(FIXTURES / "g1.json")], capsys)
            assert expected[0] == 0
            assert run([*argv, str(marked)], capsys) == expected

    def test_input_format_override(self, capsys, tmp_path):
        renamed = tmp_path / "workbook.data"
        renamed.write_bytes((FIXTURES / "g1.json").read_bytes())
        code, out, _ = run(
            ["analyze", str(renamed), "--input-format", "json", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)[0]["M03"] == 15

    @pytest.mark.parametrize(
        "case",
        [
            "non_utf8",
            "deep_json",
            "newline_ref",
            "unsupported_compression",
            "xl/worksheets/sheet1.xml",
            "xl/workbook.xml",
            "xl/sharedStrings.xml",
            "duplicate_sheet_names",
        ],
    )
    def test_unreadable_input_is_bad_input(self, capsys, tmp_path, case):
        from .test_xlsx import build_unknown_encoding_xlsx, build_unsupported_compression_xlsx, build_xlsx

        if case == "non_utf8":
            path = tmp_path / "latin1.json"
            path.write_bytes('{"name": "caf\u00e9", "sheets": []}'.encode("latin-1"))
        elif case == "deep_json":
            path = tmp_path / "deep.json"
            path.write_text("[" * 100_000)
        elif case == "newline_ref":
            path = tmp_path / "newline.json"
            cell = {"ref": "B2\n", "value": 1, "type": "number"}
            path.write_text(json.dumps({"name": "x", "sheets": [{"name": "S", "cells": [cell]}]}))
        elif case == "unsupported_compression":
            path = build_unsupported_compression_xlsx(tmp_path / "implode.xlsx")
        elif case == "duplicate_sheet_names":  # names that differ only in case
            path = build_xlsx(tmp_path / "twins.xlsx", [("Data", ""), ("data", "")])
        else:  # a package part that declares an unknown encoding
            path = build_unknown_encoding_xlsx(tmp_path / "utf9.xlsx", case)
        code, out, err = run(["analyze", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert path.name in err and "internal error" not in err

    @pytest.mark.parametrize("case", ["row_range_end", "local_sheet_id"])
    def test_overlong_digit_text_is_out_of_range(self, capsys, tmp_path, case):
        # Longer than the 4,300 digits int() converts: a row-range end in a
        # formula, and a defined name's localSheetId.
        from .test_xlsx import build_xlsx

        if case == "row_range_end":
            path = tmp_path / "rows.json"
            cell = {"ref": "A1", "formula": "=SUM(1:" + "9" * 4400 + ")"}
            path.write_text(json.dumps({"name": "x", "sheets": [{"name": "S", "cells": [cell]}]}))
        else:
            body = '<row r="1"><c r="A1"><f>Total</f></c></row>'
            path = build_xlsx(tmp_path / "names.xlsx", [("S", body)], defined_names=(("Total", "S!$B$2", "9" * 5000),))
        code, out, err = run(["analyze", str(path), "--format", "json"], capsys)
        assert code == 0 and "internal error" not in err
        (record,) = json.loads(out)
        assert record["formulaCells"] == 1
        assert record["parseFailures"] == (1 if case == "row_range_end" else 0)
        assert ("bad localSheetId" in err) == (case == "local_sheet_id")

    @pytest.mark.parametrize("command", ["analyze", "corpus"])
    @pytest.mark.parametrize("target", ["missing_directory", "directory"])
    def test_unopenable_report_file_exit_3(self, capsys, tmp_path, command, target):
        out = tmp_path / "nope" / "x.csv" if target == "missing_directory" else tmp_path
        if command == "analyze":
            argv = ["analyze", str(FIXTURES / "g1.json")]
        else:
            argv = ["corpus", str(FIXTURES), "--threads", "1"]
        code, stdout, err = run([*argv, "--out", str(out)], capsys)
        assert code == 3 and stdout == ""
        assert err.count("\n") == 1 and str(out) in err and "internal error" not in err

    def test_bad_arguments_exit_3(self, capsys):
        for argv in (["analyze"], ["frobnicate"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv", [["--help"], ["analyze", "--help"], ["corpus", "--help"]], ids=["top", "analyze", "corpus"]
    )
    def test_help_exits_0(self, capsys, argv):
        # Help text built from data fails only when it is printed, e.g. on a stray %.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        if argv[0] == "corpus":
            assert "[0,1] for M04 and M06" in help_text

    def test_bad_flag_value_exit_3(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "x.json", "--format", "yaml"])
        assert excinfo.value.code == 3
        capsys.readouterr()

    def test_conditional_functions_narrowing(self, capsys, tmp_path):
        doc = {
            "name": "w",
            "sheets": [
                {
                    "name": "S",
                    "cells": [
                        {"ref": "A1", "formula": "=IF(B1,1,0)"},
                        {"ref": "A2", "formula": "=SUMIF(B:B,1)"},
                    ],
                }
            ],
        }
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        _, wide, _ = run(["analyze", str(path), "--format", "json"], capsys)
        _, narrow, _ = run(
            ["analyze", str(path), "--format", "json", "--conditional-functions", "IF"],
            capsys,
        )
        assert json.loads(wide)[0]["M13"] == 1.0
        assert json.loads(narrow)[0]["M13"] == 0.5
        assert json.loads(narrow)[0]["M14"] == 1


class TestCorpus:
    def test_report_row_per_file(self, capsys, tmp_path):
        write_corpus(tmp_path / "corpus", 12, seed=3)
        target = tmp_path / "report.csv"
        code, _, _ = run(
            ["corpus", str(tmp_path / "corpus"), "--out", str(target), "--quiet"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(target.read_text(encoding="utf-8"))))
        assert len(rows) == 13  # header + 12 files
        ids = [r[0] for r in rows[1:]]
        assert ids == sorted(ids)

    def test_corrupt_file_skipped_not_fatal(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, 3, seed=1)
        (corpus / "broken.json").write_text("{not json")
        (corpus / "legacy.xls").write_bytes(b"\xd0\xcf\x11\xe0")
        target = tmp_path / "report.csv"
        code, _, err = run(["corpus", str(corpus), "--out", str(target)], capsys)
        assert code == 0
        rows = target.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 4  # header + 3 good files
        assert "broken.json" in err
        assert "legacy" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_file_name_that_is_not_utf8_is_written_with_its_bytes_escaped(self, capsys, tmp_path, fmt):
        # The byte 0xff is no UTF-8: its workbookId shows it as \xff, with
        # --out and on a strict UTF-8 stdout alike, and in analyze as well.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        document = json.loads((FIXTURES / "g1.json").read_text(encoding="utf-8"))
        del document["name"]  # so analyze names the workbook after its file
        for name in (b"a.json", b"c\xff.json"):
            (corpus / os.fsdecode(name)).write_text(json.dumps(document), encoding="utf-8")

        def ids(text):
            if fmt == "json":
                return [record["workbookId"] for record in json.loads(text)]
            return [row[0] for row in csv.reader(io.StringIO(text))][1:]

        target = tmp_path / f"report.{fmt}"
        assert run(["corpus", str(corpus), "--out", str(target), "--format", fmt], capsys)[0] == 0
        assert ids(target.read_text(encoding="utf-8")) == ["a.json", "c\\xff.json"]

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONIOENCODING": "utf-8",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for args, expected in (
            (["corpus", str(corpus)], ["a.json", "c\\xff.json"]),
            (["analyze", str(corpus / os.fsdecode(b"c\xff.json"))], ["c\\xff"]),
        ):
            result = subprocess.run(
                [sys.executable, "-m", "cellgauge.cli", *args, "--format", fmt],
                capture_output=True, env=env, timeout=60,
            )
            assert result.returncode == 0, result.stderr
            assert ids(result.stdout.decode("utf-8")) == expected

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_corrupt_zip_member_skipped_not_fatal(self, capsys, tmp_path, threads):
        from .test_xlsx import build_bad_crc_xlsx, build_xlsx

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        build_xlsx(corpus / "good.xlsx", [("S", '<row r="1"><c r="A1"><f>B1*2</f></c></row>')])
        build_bad_crc_xlsx(corpus / "bad.xlsx")
        target = tmp_path / "report.csv"
        code, _, err = run(["corpus", str(corpus), "--out", str(target), "--threads", threads], capsys)
        assert code == 0
        rows = target.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 2 and rows[1].startswith("good")
        assert "bad.xlsx" in err and "CorruptPartError" in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_unexpected_exception_skipped_not_fatal(self, capsys, tmp_path, monkeypatch, threads):
        # an error no reader maps to a typed input error, raised while
        # analyzing one file; pool workers are forked, so they see the patch
        import cellgauge.cli

        analyze = cellgauge.cli.analyze_workbook

        def fail_on_boom(workbook, **kwargs):
            if kwargs["workbook_id"] == "boom.json":
                raise RuntimeError("injected failure")
            return analyze(workbook, **kwargs)

        monkeypatch.setattr(cellgauge.cli, "analyze_workbook", fail_on_boom)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("boom.json", "g1.json"):
            (corpus / name).write_bytes((FIXTURES / "g1.json").read_bytes())
        target = tmp_path / "report.csv"
        code, _, err = run(["corpus", str(corpus), "--out", str(target), "--threads", threads], capsys)
        assert code == 0
        rows = target.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 2 and rows[1].startswith("g1")
        assert "boom.json" in err and "RuntimeError: injected failure" in err

    def test_killed_worker_skips_its_file_not_the_run(self, capsys, tmp_path, monkeypatch):
        # os._exit stands in for a worker killed from outside (out of memory,
        # say); pool workers are forked, so they see the patch
        import os

        import cellgauge.cli

        load = cellgauge.cli.load_workbook

        def die_on_boom(path, *args):
            if Path(path).name == "wb0009b.json":
                os._exit(1)
            return load(path, *args)

        monkeypatch.setattr(cellgauge.cli, "load_workbook", die_on_boom)
        write_corpus(tmp_path / "corpus", 20, seed=11)
        write_corpus(tmp_path / "clean", 20, seed=11)
        (tmp_path / "corpus" / "wb0009b.json").write_bytes((FIXTURES / "g1.json").read_bytes())
        reports = {}
        for corpus, threads in (("corpus", "2"), ("clean", "1")):
            target = tmp_path / f"{corpus}.json"
            code, _, err = run(
                ["corpus", str(tmp_path / corpus), "--out", str(target), "--format", "json",
                 "--summary", "--correlate", "--threads", threads],
                capsys,
            )
            assert code == 0
            reports[corpus] = [
                path.read_bytes() for path in sorted(tmp_path.glob(f"{corpus}.*json"))
            ]
            if corpus == "corpus":
                assert err.count("skipping ") == 1
                assert "skipping wb0009b.json: BrokenProcessPool" in err
        assert len(reports["corpus"]) == 3
        assert reports["corpus"] == reports["clean"]

    def test_killed_worker_isolates_only_the_chunks_in_flight(self, capsys, tmp_path, monkeypatch):
        # a crash in the first chunk must not send the rest of the corpus
        # through one-file workers
        import os

        import cellgauge.cli

        load = cellgauge.cli.load_workbook
        run_alone = cellgauge.cli._run_alone
        alone = []

        def die_on_boom(path, *args):
            if Path(path).name == "wb0000b.json":
                os._exit(1)
            return load(path, *args)

        def counted(task):
            alone.append(task[1])
            return run_alone(task)

        monkeypatch.setattr(cellgauge.cli, "load_workbook", die_on_boom)
        monkeypatch.setattr(cellgauge.cli, "_run_alone", counted)
        write_corpus(tmp_path / "corpus", 79, seed=5)
        (tmp_path / "corpus" / "wb0000b.json").write_bytes((FIXTURES / "g1.json").read_bytes())
        target = tmp_path / "report.csv"
        code, _, err = run(
            ["corpus", str(tmp_path / "corpus"), "--out", str(target), "--threads", "2"], capsys
        )
        assert code == 0
        assert err.count("skipping ") == 1 and "skipping wb0000b.json" in err
        assert len(target.read_text(encoding="utf-8").splitlines()) == 80
        assert "wb0000b.json" in alone
        assert len(alone) <= 2 * cellgauge.cli._CHUNK

    def test_empty_directory_exit_2(self, capsys, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        code, _, _ = run(["corpus", str(empty)], capsys)
        assert code == 2

    def test_missing_directory_exit_2(self, capsys, tmp_path):
        code, _, _ = run(["corpus", str(tmp_path / "nope")], capsys)
        assert code == 2

    def test_artifacts_written_next_to_report(self, capsys, tmp_path):
        write_corpus(tmp_path / "corpus", 10, seed=5)
        target = tmp_path / "report.csv"
        code, _, _ = run(
            [
                "corpus",
                str(tmp_path / "corpus"),
                "--out",
                str(target),
                "--summary",
                "--histogram",
                "M04",
                "--correlate",
                "--quiet",
            ],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "report.summary.csv").exists()
        assert (tmp_path / "report.histogram.M04.csv").exists()
        assert (tmp_path / "report.correlation.csv").exists()
        hist_rows = (tmp_path / "report.histogram.M04.csv").read_text().splitlines()
        assert len(hist_rows) == 21

    def test_stdout_json_combined_object(self, capsys, tmp_path):
        write_corpus(tmp_path / "corpus", 4, seed=9)
        code, out, _ = run(
            ["corpus", str(tmp_path / "corpus"), "--format", "json", "--summary", "--quiet"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"records", "summary"}
        assert len(payload["records"]) == 4

    def test_histogram_range_and_bins_flags(self, capsys, tmp_path):
        write_corpus(tmp_path / "corpus", 6, seed=11)
        code, out, _ = run(
            [
                "corpus",
                str(tmp_path / "corpus"),
                "--format",
                "json",
                "--histogram",
                "M03",
                "--bins",
                "4",
                "--range",
                "0,8",
                "--quiet",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        hist = payload["histogram.M03"]
        assert len(hist["counts"]) == 4
        assert hist["binEdges"][0] == 0.0 and hist["binEdges"][-1] == 8.0

    def test_bins_alone_keeps_the_ratio_range(self, capsys, tmp_path):
        write_corpus(tmp_path / "corpus", 6, seed=11)
        default = ["corpus", str(tmp_path / "corpus"), "--histogram", "M04", "--quiet"]
        code, out, _ = run(default, capsys)
        assert code == 0
        assert run([*default, "--bins", "20"], capsys) == (0, out, "")
        rows = list(csv.reader(io.StringIO(out.split("\n\n")[-1])))
        assert (rows[1][1], rows[-1][2]) == ("0", "1")

    @pytest.mark.parametrize(
        "option",
        [["--bins", "-2"], ["--bins", "0"], ["--range", "0,1e400"]],
        ids=["negative", "zero", "infinite"],
    )
    def test_bad_histogram_option_exit_3(self, capsys, tmp_path, option):
        write_corpus(tmp_path / "corpus", 2, seed=11)
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus", str(tmp_path / "corpus"), "--histogram", "M03", *option])
        assert excinfo.value.code == 3
        assert option[0] in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1", "two"])
    def test_threads_below_one_exit_3(self, capsys, tmp_path, threads):
        # never a silent serial run: a bad count is a bad argument
        write_corpus(tmp_path / "corpus", 2, seed=11)
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus", str(tmp_path / "corpus"), "--threads", threads])
        assert excinfo.value.code == 3
        assert "--threads" in capsys.readouterr().err

    def test_planted_linear_dependence_correlates_exactly(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        # n identical formulas per workbook: M03 (count) and M21 (elements) are
        # constant per file; M03 vs M05 piggyback a planted linear relation.
        for i in range(1, 6):
            cells = [
                {"ref": f"A{row}", "formula": f"=B{row}+1"} for row in range(1, i + 1)
            ]
            doc = {"name": f"w{i}", "sheets": [{"name": "S", "cells": cells}]}
            (corpus / f"w{i}.json").write_text(json.dumps(doc))
        code, out, _ = run(
            ["corpus", str(corpus), "--format", "json", "--correlate", "--quiet"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        ids = payload["correlation"]["metricIds"]
        r = payload["correlation"]["r"]
        i03, i05 = ids.index("M03"), ids.index("M05")
        assert r[i03][i05] == pytest.approx(1.0, abs=1e-9)

    def test_nested_directories_sorted_by_relative_path(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus / "z-sub", 2, seed=4)
        write_corpus(corpus / "a-sub", 2, seed=5)
        write_corpus(corpus, 1, seed=6)
        target = tmp_path / "report.csv"
        code, _, _ = run(["corpus", str(corpus), "--out", str(target), "--quiet"], capsys)
        assert code == 0
        ids = [row.split(",")[0] for row in target.read_text().splitlines()[1:]]
        assert ids == sorted(ids)
        assert ids[0].startswith("a-sub/") and ids[-1].startswith("z-sub/")

    def test_main_leaves_logging_as_it_found_it(self, capsys, caplog):
        root = logging.getLogger()
        before = root.level, list(root.handlers)
        assert run(["analyze", str(FIXTURES / "g1.json"), "--quiet"], capsys)[0] == 0
        assert (root.level, root.handlers) == before
        logging.getLogger("cellgauge.xlsx").warning("still heard")
        assert "still heard" in caplog.text

    def test_analyze_xlsx_through_cli(self, capsys, tmp_path):
        from .test_xlsx import build_xlsx

        path = build_xlsx(
            tmp_path / "book.xlsx",
            [("S", '<row r="1"><c r="A1"><f>SUM(B1:B4)</f></c><c r="B1"><v>2</v></c></row>')],
        )
        code, out, _ = run(["analyze", str(path), "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["workbookId"] == "book"
        assert payload["M09"] == 4  # B1:B4 expanded

    def test_pool_never_has_more_workers_than_files(self, capsys, tmp_path, inline_pool):
        write_corpus(tmp_path / "corpus", 2, seed=3)
        target = tmp_path / "report.csv"
        assert run(["corpus", str(tmp_path / "corpus"), "--out", str(target), "--threads", "5000"], capsys)[0] == 0
        assert inline_pool["sizes"] == [2]
        assert len(target.read_text(encoding="utf-8").splitlines()) == 3

    @pytest.mark.parametrize("files, chunk", [(8, 1), (20, 3), (1000, 8)])
    def test_chunks_reach_every_worker(self, tmp_path, inline_pool, files, chunk):
        # up to four chunks per worker and at most _CHUNK files each, in
        # path order; the files do not exist, so each outcome is an error
        from cellgauge.cli import _run_pool

        tasks = [(str(tmp_path / f"f{i:04d}.json"), f"f{i:04d}.json", ()) for i in range(files)]
        outcomes = _run_pool(tasks, 2)
        sizes = [len(args[0]) for args in inline_pool["submitted"]]
        assert sizes == [chunk] * (files // chunk) + ([files % chunk] if files % chunk else [])
        assert [relative for _, relative, _ in outcomes] == [task[1] for task in tasks]

    def test_single_worker_run_never_imports_the_process_pool(self, tmp_path):
        # a fresh interpreter, so modules other tests imported do not count
        write_corpus(tmp_path / "corpus", 3, seed=5)
        script = (
            "import sys\n"
            "from cellgauge.cli import main\n"
            "code = main(['corpus', sys.argv[1], '--out', sys.argv[2], '--threads', '1'])\n"
            "print(code, sorted({'multiprocessing', 'concurrent.futures', 'statistics', 'dataclasses'}"
            " & set(sys.modules)))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        target = tmp_path / "report.csv"
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "corpus"), str(target)],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        assert result.stdout.splitlines()[-1] == "0 []"
        assert len(target.read_text(encoding="utf-8").splitlines()) == 4

    def test_nested_calls_identical_at_any_parallelism(self, capsys, tmp_path):
        # 150 to 199 nested SUM calls: the parse outcome must not depend on
        # how deep the caller's stack is, in this process or in a worker
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for n in range(150, 200):
            cell = {"ref": "B1", "formula": "=" + "SUM(" * n + "A1" + ")" * n}
            doc = {"name": f"n{n}", "sheets": [{"name": "S", "cells": [cell]}]}
            (corpus / f"n{n}.json").write_text(json.dumps(doc))
        reports = []
        for threads in ("1", "2"):
            target = tmp_path / f"threads{threads}.json"
            args = ["corpus", str(corpus), "--out", str(target), "--format", "json", "--threads", threads]
            assert run([*args, "--quiet"], capsys)[0] == 0
            reports.append(target.read_bytes())
        assert reports[0] == reports[1]
        depths = [record["M01"] for record in json.loads(reports[0])]
        assert depths == [n + 1 for n in range(150, 200)]

    def test_determinism_across_parallelism(self, capsys, tmp_path):
        write_corpus(tmp_path / "corpus", 16, seed=21)
        one = tmp_path / "one.csv"
        many = tmp_path / "many.csv"
        assert run(["corpus", str(tmp_path / "corpus"), "--out", str(one), "--threads", "1", "--quiet"], capsys)[0] == 0
        assert run(["corpus", str(tmp_path / "corpus"), "--out", str(many), "--threads", "4", "--quiet"], capsys)[0] == 0
        assert one.read_bytes() == many.read_bytes()

    def test_per_file_work_leaves_no_cyclic_garbage(self, capsys, tmp_path):
        # the collector is paused while each file is read and analyzed, so a
        # reference cycle made there would pile up until the next collection:
        # what a run leaves for the collector must not grow with the corpus
        from .test_xlsx import build_xlsx

        body = (
            '<row r="1"><c r="A1"><v>1</v></c><c r="B1"><f>SUM(A1:A4)+SUM(TOTAL)</f></c></row>'
            '<row r="2"><c r="A2"><v>2</v></c><c r="B2"><f t="shared" ref="B2:B4" si="0">SUM($A$1:A2)</f></c></row>'
            '<row r="3"><c r="B3"><f t="shared" si="0"/></c></row>'
            '<row r="4"><c r="B4"><f t="shared" si="0"/></c></row>'
        )

        def corpus(name, count):
            directory = tmp_path / name
            write_corpus(directory, count, seed=8)  # interchange files with ranges
            for i in range(count):
                build_xlsx(directory / f"x{i}.xlsx", [("S", body)], defined_names=(("TOTAL", "S!$A$1:$A$4"),))
            (directory / "broken.xlsx").write_bytes(b"not a zip")
            return directory

        small, large = corpus("small", 4), corpus("large", 8)
        argv = ["--out", str(tmp_path / "report.csv"), "--summary", "--threads", "1", "--quiet"]
        assert run(["corpus", str(small), *argv], capsys)[0] == 0  # warm-up: caches and lazy imports
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            garbage = []
            for directory in (small, large):
                assert run(["corpus", str(directory), *argv], capsys)[0] == 0
                garbage.append(gc.collect())
        finally:
            if enabled:
                gc.enable()
        assert garbage[0] == garbage[1]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_paused_per_file_and_restored(self, capsys, tmp_path, monkeypatch, enabled):
        import cellgauge.cli

        load, analyze = cellgauge.cli.load_workbook, cellgauge.cli.analyze_workbook
        inside = []

        def recording_load(path, *args):
            inside.append(gc.isenabled())
            return load(path, *args)

        def recording_analyze(workbook, **kwargs):
            inside.append(gc.isenabled())
            return analyze(workbook, **kwargs)

        monkeypatch.setattr(cellgauge.cli, "load_workbook", recording_load)
        monkeypatch.setattr(cellgauge.cli, "analyze_workbook", recording_analyze)
        good, bad = FIXTURES / "g1.json", tmp_path / "bad.xlsx"
        bad.write_bytes(b"not a zip")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            after = []
            outcomes = []
            for path in (good, bad):
                outcomes.append(cellgauge.cli._corpus_worker((str(path), path.name, ()))[0])
                after.append(gc.isenabled())
            codes = []
            for path in (good, bad):
                codes.append(run(["analyze", str(path)], capsys)[0])
                after.append(gc.isenabled())
        finally:
            (gc.enable if was else gc.disable)()
        assert outcomes == ["ok", "error"] and codes == [0, 2]
        assert inside == [False] * 6  # load + analyze twice, a failed load twice
        assert after == [enabled] * 4
