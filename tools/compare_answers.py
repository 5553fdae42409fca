"""Compare two output directories of `tools/answers.py`, file by file.

Usage: python3 tools/compare_answers.py PARENT_DIR CHANGE_DIR

A file whose bytes match prints "identical". A `Solution` (*.solution.json)
or certificate (*.cert.json) that differs prints whether its invariants are
equal (status, level, iterations, notes, Schur info and `passed`,
whichever the file holds) and the largest relative change, in max norm, of
its numbers: y or the metric values, C, D, the Floquet bound and the
smallest block eigenvalues. A printed-lines file (*.lines.txt) that
differs prints whether its commands' exit codes are equal. Any other file
that differs prints "differs". The exit status is 1 when a file is missing
on one side or an invariant differs, else 0.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

# invariant -> path of keys in a Solution record or a certificate
INVARIANTS = {
    "status": (("status",), ("solver", "status")),
    "level": ((), ("k",)),
    "iterations": (("iterations",), ("solver", "iterations")),
    "notes": (("notes",), ("verification", "notes")),
    "schur": (("schur",), ()),
    "passed": ((), ("verification", "passed")),
}
NUMBERS = {
    "y": (("y",), ("metric_upper",)),
    "C": ((), ("constants", "C")),
    "D": ((), ("constants", "D")),
    "floquet_bound": ((), ("floquet_bound",)),
    "block_min_eigs": (("block_min_eigs",), ("solver", "min_block_eig")),
}
MISSING = object()


def _get(record, path):
    if not path:
        return MISSING
    for key in path:
        if not isinstance(record, dict) or key not in record:
            return MISSING
        record = record[key]
    return record


def _floats(value):
    """The numbers of a field: float.hex strings, decimal strings or
    floats, in nested lists."""
    flat = np.asarray(value, dtype=object).ravel()
    return np.array([float.fromhex(v) if isinstance(v, str) and "0x" in v
                     else float(v) for v in flat])


def _relative(old, new):
    old, new = _floats(old), _floats(new)
    if old.shape != new.shape:
        return "shape differs"
    scale = np.abs(old).max(initial=0.0)
    diff = np.abs(new - old).max(initial=0.0)
    return f"{diff / scale if scale else diff:.2g}"


def compare(name, old_bytes, new_bytes):
    """(line, invariants equal) for one file present on both sides."""
    if old_bytes == new_bytes:
        return "identical", True
    if name.endswith(".lines.txt"):
        codes = [[line for line in text.decode().splitlines()
                  if " exit " in line] for text in (old_bytes, new_bytes)]
        equal = codes[0] == codes[1]
        return ("differs; " + ("same" if equal else "DIFFERENT")
                + " exit codes"), equal
    kind = (0 if name.endswith(".solution.json")
            else 1 if name.endswith(".cert.json") else None)
    if kind is None:
        return "differs", True
    old, new = json.loads(old_bytes), json.loads(new_bytes)
    same, diff = [], []
    for label, paths in INVARIANTS.items():
        a, b = _get(old, paths[kind]), _get(new, paths[kind])
        if a is MISSING and b is MISSING:
            continue
        (same if a == b else diff).append(label)
    moves = []
    for label, paths in NUMBERS.items():
        a, b = _get(old, paths[kind]), _get(new, paths[kind])
        if a is not MISSING and b is not MISSING:
            moves.append(f"{label} {_relative(a, b)}")
    line = "same " + ", ".join(same)
    if diff:
        line += "; DIFFERENT " + ", ".join(diff)
    return line + "; largest relative change: " + ", ".join(moves), not diff


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = argv[1], argv[2]
    names = sorted(set(os.listdir(parent)) | set(os.listdir(change)))
    ok, identical = True, 0
    for name in names:
        paths = [os.path.join(d, name) for d in (parent, change)]
        if not all(os.path.exists(p) for p in paths):
            side = "parent" if os.path.exists(paths[0]) else "change"
            print(f"{name}: only in {side}")
            ok = False
            continue
        old, new = (open(p, "rb").read() for p in paths)
        line, equal = compare(name, old, new)
        identical += line == "identical"
        ok &= equal
        print(f"{name}: {line}")
    print(f"{identical} of {len(names)} files identical")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
