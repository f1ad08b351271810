"""The golden store: the values every refactoring pin is compared with.

One JSON file per pin family sits beside this module, and :func:`check`
is its only reader and writer.  A value matches only if its canonical
JSON text (``sort_keys``, compact separators) does, so ``1`` and ``1.0``
differ, as do ``true`` and ``1``.  A mismatch names every moved, added
and removed key with its old and new value, and for a list its first
differing entry and both lengths.  A key the file does not hold is
written into it and the check fails: see docs/faults.md, "Re-recording
a pin".
"""

import json
import pathlib

DIRECTORY = pathlib.Path(__file__).parent


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def path_of(family: str) -> pathlib.Path:
    return DIRECTORY / ("%s.json" % family)


def load(family: str) -> dict:
    path = path_of(family)
    return json.loads(path.read_text()) if path.exists() else {}


def check(family: str, key: str, observed) -> None:
    """Fail unless *observed* is exactly the stored ``family[key]``."""
    __tracebackhide__ = True
    stored = load(family)
    if key not in stored:
        stored[key] = observed
        path_of(family).write_text(
            json.dumps(stored, indent=1, sort_keys=True) + "\n")
        raise AssertionError("%s[%r] recorded; review `git diff "
                             "tests/golden/`" % (family, key))
    if canonical(stored[key]) != canonical(observed):
        raise AssertionError("%s[%r] moved:\n  %s" % (
            family, key, "\n  ".join(differences(stored[key], observed))))


def differences(old, new, path: str = ""):
    """One line per flattened key of *old* / *new* that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            inner = "%s.%s" % (path, key) if path else key
            if key not in new:
                yield "removed %s: %s" % (inner, canonical(old[key]))
            elif key not in old:
                yield "added %s: %s" % (inner, canonical(new[key]))
            else:
                yield from differences(old[key], new[key], inner)
    elif isinstance(old, (list, tuple)) and isinstance(new, (list, tuple)):
        if canonical(old) != canonical(new):
            index = next((i for i, (a, b) in enumerate(zip(old, new))
                          if canonical(a) != canonical(b)),
                         min(len(old), len(new)))

            def entry(seq):
                return canonical(seq[index]) if index < len(seq) else "(none)"

            yield "moved %s[%d]: %s -> %s (length %d -> %d)" % (
                path, index, entry(old), entry(new), len(old), len(new))
    elif canonical(old) != canonical(new):
        yield "moved %s: %s -> %s" % (path, canonical(old), canonical(new))
