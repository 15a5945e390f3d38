"""Suite-wide wiring: a deterministic Hypothesis profile and acceptance
summary lines.

Property tests draw from a derandomized profile with no example database,
so every run tries the same examples. Hypothesis still caches its unicode
table and the source constants it mines on disk; that cache goes to the
system temp directory, so a run writes no `.hypothesis/` directory into
the checkout. After any run that touched tests/test_acceptance.py, one line
per criterion is printed with its PASS / FAIL / SKIP outcome so the gate
can be read without scrolling through pytest output.
"""

import os
import re
import tempfile

from hypothesis import settings

os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "gmconv-hypothesis")
)
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, database=None, max_examples=200
)
settings.load_profile("deterministic")

CRITERIA = {
    1: "mask oracle equivalence, 200 random configs within 1e-12, < 1 s",
    2: "hand values for the circular and elliptic 3x3 grids, 1e-6",
    3: "flat-limit logits match the plain twin within 1e-6 on 1000 inputs",
    4: "fold equivalence within 1e-12, 100 inputs per kernel size 3/5/11",
    5: "finite-difference gradients, static + all dynamic patterns, < 1e-4, < 10 s",
    6: "predictor dimensions: C=64, r=4/3 gives hidden 96; arity 1/2/2",
    7: "parameter and FLOP accounting within 2%/5%; static twin +19 params",
    8: "ERF box-stack oracle within 1e-9; masked stem shrinks the radius",
    9: "desk-scale CIFAR-10: baseline >= 45%, masked twin within 2 points, sigma moves",
    10: "desk-scale determinism: two seed-0 runs emit identical metric CSVs",
    11: "ablation configs (sigma-init 1/5/10, three patterns) run end-to-end < 5 min",
}

_NODE_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def _skip_reason(report) -> str:
    longrepr = getattr(report, "longrepr", None)
    if isinstance(longrepr, tuple) and len(longrepr) == 3:
        reason = str(longrepr[2])
        return reason.removeprefix("Skipped: ")
    return ""


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for status, word in (("failed", "FAIL"), ("error", "FAIL"), ("skipped", "SKIP"),
                         ("passed", "PASS")):
        for report in terminalreporter.stats.get(status, []):
            match = _NODE_PATTERN.search(getattr(report, "nodeid", ""))
            if not match:
                continue
            number = int(match.group(1))
            if number in results:
                continue
            note = _skip_reason(report) if word == "SKIP" else ""
            results[number] = (word, note)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERIA):
        word, note = results.get(number, ("NOT RUN", ""))
        line = f"CRITERION {number:>2}: {word:<7} {CRITERIA[number]}"
        if note:
            line += f"  [{note}]"
        terminalreporter.write_line(line)
