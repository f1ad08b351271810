"""Lint: counter and span names must come from the registry, not inline
strings.

Every hot-path counter name, span name and span category lives in
:mod:`repro.telemetry.names`; call sites use them through a
:class:`~repro.sim.trace.CounterScope` handle.  A raw ``count("literal")``
or ``span("literal", ...)`` reintroduces the stringly-typed API this repo
migrated away from - typos silently mint new counters (and golden
signatures drift) or new rows in the per-layer report.  This test greps
``src/`` so CI catches regressions.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: ``.count("...")`` / ``.count('...')`` with a string literal first arg
RAW_COUNT = re.compile(r"""\.count\(\s*(["'])""")
#: the same for ``.span(``, whose first argument may sit on the next line
RAW_SPAN = re.compile(r"""\.span\(\s*(["'])""")

#: the registry itself is the one place string literals belong
ALLOWED = {SRC / "telemetry" / "names.py"}


def offending_lines(pattern):
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        if path in ALLOWED:
            continue
        text = path.read_text()
        for match in pattern.finditer(text):
            lineno = text.count("\n", 0, match.start()) + 1
            hits.append("%s:%d: %s"
                        % (path.relative_to(SRC.parent.parent), lineno,
                           text.splitlines()[lineno - 1].strip()))
    return hits


def test_no_raw_counter_name_literals():
    hits = offending_lines(RAW_COUNT)
    assert not hits, (
        "raw counter-name literals found; use repro.telemetry.names "
        "constants via a tracer scope instead:\n" + "\n".join(hits))


def test_no_raw_span_name_literals():
    hits = offending_lines(RAW_SPAN)
    assert not hits, (
        "raw span-name literals found; use the SPAN_* and CAT_* constants "
        "of repro.telemetry.names instead:\n" + "\n".join(hits))
    # Guard the guard: the pattern sees a literal on the line after the
    # parenthesis, and lets a registry constant through.
    assert RAW_SPAN.search('self.counters.span(\n    "push", cat)')
    assert not RAW_SPAN.search("self.counters.span(names.SPAN_PUSH, cat)")


def test_registry_is_the_only_allowed_home():
    # Guard the guard: the registry exists and actually defines names.
    names = (SRC / "telemetry" / "names.py").read_text()
    assert re.search(r'^[A-Z][A-Z0-9_]* = "', names, re.M)
    assert re.search(r'^SPAN_[A-Z0-9_]* = "', names, re.M)
    assert re.search(r'^CAT_[A-Z]* = "', names, re.M)
