"""The parse outcome of a fixed set of formula texts, pinned by one digest.

The texts are every formula text of the three pipebench workloads at seeds
1 and 3 (the ``workload_files`` fixture in ``conftest.py``), in file and
cell order, then 20,000 seeded character mutations of ``genutil.gen_expr``
output. A text's outcome is its tree's repr, or its error's type, message,
offset and sorted expected set. A change to the scanner or the parser that
moves any tree or any error changes the digest; a deliberate one
regenerates ``EXPECTED`` from the assertion message.
"""

from __future__ import annotations

import hashlib
import random

from cellgauge.cli import load_workbook
from cellgauge.parser import parse_text
from cellgauge.tokens import FormulaError

from .genutil import gen_expr

EXPECTED = "d201ac19de0937741c332c6adc76fe17cf46864da2e6151e86032eae2f53e402"

MUTATIONS = 20_000
SHEETS = ("Data", "Sheet 2", "TRUE")
# Characters a mutation inserts or substitutes: formula punctuation,
# whitespace, name and digit characters, and two non-ASCII ones (a letter
# and an Arabic-Indic digit, which str.isdigit accepts).
ALPHABET = "\"'$!:,;()[]{}+-*/^&%<>=#.? \t\n_019AEFRTZaezé٣"


def outcome(text: str) -> str:
    try:
        return repr(parse_text(text))
    except FormulaError as exc:
        expected = sorted(getattr(exc, "expected", ()))
        return f"{type(exc).__name__} {exc} {exc.position} {expected}"


def mutated_texts(count: int, seed: int = 0):
    rng = random.Random(seed)
    for _ in range(count):
        chars = list(gen_expr(rng, sheets=SHEETS))
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(chars) + 1)
            edit = rng.randrange(3)
            if edit == 0 or at == len(chars):
                chars.insert(at, rng.choice(ALPHABET))
            elif edit == 1:
                del chars[at]
            else:
                chars[at] = rng.choice(ALPHABET)
        yield "".join(chars)


def workload_texts(workload_files):
    for _, path in workload_files:
        for sheet in load_workbook(path).sheets:
            for key in sorted(sheet.cells):
                formula = sheet.cells[key].formula
                if formula is not None:
                    yield formula.text


def test_parse_outcomes_match_committed_digest(workload_files):
    h = hashlib.sha256()
    count = 0
    for text in [*workload_texts(workload_files), *mutated_texts(MUTATIONS)]:
        h.update(f"{text}\n{outcome(text)}\n".encode())
        count += 1
    assert count == 27_478 + MUTATIONS
    got = h.hexdigest()
    assert got == EXPECTED, f"parse digest {got}"
