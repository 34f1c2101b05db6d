#!/usr/bin/env python3
"""Benchmark the compiled scanner against the pure-Python fallback.

Usage:
    python benchmarks/bench_tokenizer.py [--count 20000] [--repeat 5] [--end-to-end]

The workload is a deterministic synthetic formula corpus; --end-to-end also
times a full workbook analysis under each backend, parsing included
(scanner selection aside, the pipeline is identical, so the delta isolates
scan cost).
"""

from __future__ import annotations

import argparse
import random
import time

from cellgauge import _tokenizer_py

try:
    from cellgauge import _tokenizer as _tokenizer_cy
except ImportError:
    _tokenizer_cy = None

FUNCS = ("SUM", "IF", "AVERAGE", "COUNTIF", "ROUND", "MIN", "MAX", "IFERROR")


def synth_formula(rng: random.Random) -> str:
    parts = []
    for i in range(rng.randint(1, 4)):
        if i:
            parts.append(rng.choice(("+", "-", "*", "/", "&", "<=", "^")))
        roll = rng.random()
        if roll < 0.3:
            col = chr(65 + rng.randrange(8))
            parts.append(f"{col}{rng.randint(1, 99)}")
        elif roll < 0.5:
            col = chr(65 + rng.randrange(8))
            parts.append(
                f"{rng.choice(FUNCS)}({col}{rng.randint(1, 20)}:{col}{rng.randint(21, 99)})"
            )
        elif roll < 0.65:
            parts.append(f"'Data Sheet'!$B${rng.randint(1, 500)}")
        elif roll < 0.8:
            parts.append(str(rng.randint(0, 10_000)))
        else:
            parts.append(f'"label {rng.randint(0, 50)}"')
    return "".join(parts)


def build_corpus(count: int, seed: int = 7) -> list[str]:
    rng = random.Random(seed)
    return [synth_formula(rng) for _ in range(count)]


def time_backend(scan, corpus: list[str], repeat: int) -> tuple[float, int]:
    best = float("inf")
    tokens = 0
    for _ in range(repeat):
        started = time.perf_counter()
        tokens = 0
        for text in corpus:
            tokens += len(scan(text))
        best = min(best, time.perf_counter() - started)
    return best, tokens


def time_end_to_end(repeat: int) -> dict[str, float]:
    import os
    import subprocess
    import sys

    script = (
        "import random, time\n"
        "from cellgauge.lexer import BACKEND\n"
        "from cellgauge.model import Cell, CellCoordinate, Workbook, Worksheet\n"
        "from cellgauge.parser import parse_formula\n"
        "from cellgauge.graph import build_graph\n"
        "from cellgauge.metrics import compute_record\n"
        "rng = random.Random(3)\n"
        "texts = []\n"
        "for i in range(4000):\n"
        "    col = chr(65 + rng.randrange(8))\n"
        "    texts.append(f'SUM({col}{rng.randint(1,50)}:{col}{rng.randint(51,120)})*2+A{rng.randint(1,400)}')\n"
        "started = time.perf_counter()\n"
        "cells = {}\n"
        "for i, text in enumerate(texts):\n"
        "    cells[(i + 1, 9)] = Cell(coordinate=CellCoordinate(1, i + 1, 9), formula=parse_formula(text))\n"
        "wb = Workbook('bench', (Worksheet('S', 1, cells),), {})\n"
        "compute_record(wb, build_graph(wb))\n"
        "print(BACKEND, time.perf_counter() - started)\n"
    )
    results: dict[str, float] = {}
    for pure in ("0", "1"):
        env = dict(os.environ, CELLGAUGE_PURE_PYTHON=pure) if pure == "1" else {
            k: v for k, v in os.environ.items() if k != "CELLGAUGE_PURE_PYTHON"
        }
        best = float("inf")
        backend = "?"
        for _ in range(repeat):
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            ).stdout.split()
            backend, elapsed = out[0], float(out[1])
            best = min(best, elapsed)
        results[backend] = best
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=20_000, help="formulas per pass")
    parser.add_argument("--repeat", type=int, default=5, help="passes; best is reported")
    parser.add_argument("--end-to-end", action="store_true", help="also time full analyses")
    args = parser.parse_args()

    corpus = build_corpus(args.count)
    chars = sum(len(t) for t in corpus)
    print(f"corpus: {len(corpus)} formulas, {chars} chars")

    py_time, py_tokens = time_backend(_tokenizer_py.scan, corpus, args.repeat)
    print(f"python scanner : {py_time * 1e3:8.1f} ms  ({py_tokens / py_time / 1e6:.2f} Mtok/s)")
    if _tokenizer_cy is None:
        print("cython scanner : not built (install without CELLGAUGE_SKIP_EXT)")
    else:
        cy_time, cy_tokens = time_backend(_tokenizer_cy.scan, corpus, args.repeat)
        assert cy_tokens == py_tokens, "backends disagree on token count"
        print(f"cython scanner : {cy_time * 1e3:8.1f} ms  ({cy_tokens / cy_time / 1e6:.2f} Mtok/s)")
        print(f"speedup        : {py_time / cy_time:8.2f}x")

    if args.end_to_end:
        results = time_end_to_end(max(2, args.repeat // 2))
        for backend, elapsed in sorted(results.items()):
            print(f"end-to-end ({backend:>6}): {elapsed * 1e3:8.1f} ms")
        if len(results) == 2:
            times = sorted(results.values())
            print(f"end-to-end delta    : {times[1] / times[0]:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
