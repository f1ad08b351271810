"""Lint: counter and span names must come from the registry, not inline
strings.

Every hot-path counter name, span name and span category lives in
:mod:`repro.telemetry.names`; call sites use them through a
:class:`~repro.sim.trace.CounterScope` handle.  A raw ``count("literal")``
or ``span("literal", ...)`` reintroduces the stringly-typed API this repo
migrated away from - typos silently mint new counters (and golden
signatures drift) or new rows in the per-layer report.  A registered leaf
is a field of its scope (``self.counters.tx_frames += 1``): every such
bump must name a leaf of ``names.COUNTER_FIELDS``, and none may go
through ``count(names.X)``, which costs a call.  This test greps ``src/``
so CI catches regressions.
"""

import re
from pathlib import Path

from repro.telemetry import names

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: ``.count("...")`` / ``.count('...')`` with a string literal first arg
RAW_COUNT = re.compile(r"""\.count\(\s*(["'])""")
#: the same for ``.span(``, whose first argument may sit on the next line
RAW_SPAN = re.compile(r"""\.span\(\s*(["'])""")

#: ``<...>counters.<leaf> +=``: a field bump on a counter scope
FIELD_BUMP = re.compile(r"\bcounters\.([A-Za-z_]\w*)\s*\+=")
#: ``.count(names.X`` - a registered constant bumped through the call
NAMED_COUNT = re.compile(r"\.count\(\s*names\.([A-Z][A-Z0-9_]*)\b")

#: the registry itself is the one place string literals belong
ALLOWED = {SRC / "telemetry" / "names.py"}


def offending_lines(pattern, offends=lambda match: True):
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        if path in ALLOWED:
            continue
        text = path.read_text()
        for match in pattern.finditer(text):
            if not offends(match):
                continue
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


def unregistered_field(match) -> bool:
    return match.group(1) not in names.COUNTER_FIELDS


def field_through_count(match) -> bool:
    return getattr(names, match.group(1), None) in names.COUNTER_FIELDS


def test_every_field_bump_names_a_registered_leaf():
    hits = offending_lines(FIELD_BUMP, unregistered_field)
    assert not hits, (
        "counter field bumps of leaves repro.telemetry.names does not "
        "register (add the constant, or bump a computed leaf with "
        "count()):\n" + "\n".join(hits))
    # Guard the guard: it catches a misspelt leaf and passes a real one.
    assert [m.group(1) for m in FIELD_BUMP.finditer(
        "self.stack.counters.tx_framez += 1") if unregistered_field(m)] \
        == ["tx_framez"]
    assert not [m for m in FIELD_BUMP.finditer(
        "counters.tx_frames += n") if unregistered_field(m)]


def test_no_registered_field_is_bumped_through_count():
    hits = offending_lines(NAMED_COUNT, field_through_count)
    assert not hits, (
        "registered leaves bumped through count(): write "
        "`<scope>.<leaf> += n`, one attribute add:\n" + "\n".join(hits))
    assert [m for m in NAMED_COUNT.finditer("c.count(names.TX_FRAMES)")
            if field_through_count(m)]
    assert not [m for m in NAMED_COUNT.finditer("c.count(names.CTRL_QUEUE)")
                if field_through_count(m)]


def test_registry_is_the_only_allowed_home():
    # Guard the guard: the registry exists and actually defines names.
    names = (SRC / "telemetry" / "names.py").read_text()
    assert re.search(r'^[A-Z][A-Z0-9_]* = "', names, re.M)
    assert re.search(r'^SPAN_[A-Z0-9_]* = "', names, re.M)
    assert re.search(r'^CAT_[A-Z]* = "', names, re.M)
