"""Compare two output directories of `tools/answers.py`, file by file, or
one against the committed golden answers.

Usage: python3 tools/compare_answers.py PARENT_DIR CHANGE_DIR
       python3 tools/compare_answers.py --golden [--write] GOLDEN OUTDIR

A file whose bytes match prints "identical". A `Solution` (*.solution.json)
or certificate (*.cert.json) that differs prints whether its invariants are
equal (status, level, iterations, a Solution's notes, Schur info and
`passed`, whichever the file holds) and the largest relative change, in
max norm, of its numbers: y or the metric values, C, D, the Floquet bound
and the smallest block eigenvalues. A certificate or a verification report
(*.report.json) that differs also prints the largest absolute move of its
verification's `max_lambda_max`, `max_lm` and each `vertex_residuals`
entry, and names every other verification field that differs or is on one
side only. A printed-lines file (*.lines.txt) that differs prints whether
its commands' exit codes are equal. Any other file that differs prints
"differs". The exit status is 1 when a file is missing on one side or an
invariant differs, else 0.

`--golden` checks OUTDIR against GOLDEN (tests/golden/answers.json), which
holds per file its SHA-256, its invariants, the exit codes of a lines
file, C, D and the Floquet bound as `float.hex`, and the max norm of y,
beside the fingerprint of the environment that wrote them: Python, numpy
and scipy, the BLAS libraries and their thread counts, numpy's CPU
features and the CPU model. Run it with the environment `answers.py` ran
with (OPENBLAS_NUM_THREADS=1 for the committed file). Where the
fingerprint matches, every file must hash the same. Elsewhere the
invariants and exit codes must be equal, y's max norm within 1e-9
relative, and C and the bound within 1e-8; D is printed, not gated, since
a `min_c` optimum on a flat face leaves it to rounding. The same file set
is required in both modes. `--write` records OUTDIR as GOLDEN instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

# invariant -> path of keys in a Solution record or a certificate
INVARIANTS = {
    "status": (("status",), ("solver", "status")),
    "level": ((), ("k",)),
    "iterations": (("iterations",), ("solver", "iterations")),
    "notes": (("notes",), ()),
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
# verification fields whose absolute moves a differing certificate or
# report prints, a dict entry by entry
MOVES = ("max_lambda_max", "max_lm", "vertex_residuals")
MISSING = object()
# relative tolerances of the golden check off its fingerprint
TOLERANCES = {"y": 1e-9, "C": 1e-8, "floquet_bound": 1e-8}


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


def _move(old, new):
    """Largest relative change in max norm, or None if the shapes differ."""
    old, new = _floats(old), _floats(new)
    if old.shape != new.shape:
        return None
    scale = np.abs(old).max(initial=0.0)
    diff = np.abs(new - old).max(initial=0.0)
    return diff / scale if scale else diff


def _relative(old, new):
    move = _move(old, new)
    return "shape differs" if move is None else f"{move:.2g}"


def _kind(name):
    return (0 if name.endswith(".solution.json")
            else 1 if name.endswith(".cert.json") else None)


def _leaves(record, prefix=""):
    """The leaves of nested dicts, by dotted path."""
    out = {}
    for key, value in record.items():
        if isinstance(value, dict):
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _verification_moves(old, new):
    """The absolute moves of the MOVES fields of two verification records,
    and the other fields that differ or are on one side only."""
    old, new = _leaves(old), _leaves(new)
    moves, others = [], []
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key, MISSING), new.get(key, MISSING)
        if key.split(".")[0] in MOVES and MISSING not in (a, b):
            move = ("null" if None in (a, b)
                    else f"{abs(float(b) - float(a)):.2g}")
            moves.append(f"{key} {move}")
        elif a is MISSING or b is MISSING:
            others.append(f"{key} only in the "
                          + ("parent" if b is MISSING else "change"))
        elif a != b:
            others.append(key)
    return ("verification moves: " + ", ".join(moves)
            + "; other verification fields differing: "
            + (", ".join(others) or "none"))


def _exit_codes(data):
    return [line for line in data.decode().splitlines() if " exit " in line]


def compare(name, old_bytes, new_bytes):
    """(line, invariants equal) for one file present on both sides."""
    if old_bytes == new_bytes:
        return "identical", True
    if name.endswith(".lines.txt"):
        equal = _exit_codes(old_bytes) == _exit_codes(new_bytes)
        return ("differs; " + ("same" if equal else "DIFFERENT")
                + " exit codes"), equal
    kind = _kind(name)
    if name.endswith(".report.json"):
        return ("differs; " + _verification_moves(json.loads(old_bytes),
                                                  json.loads(new_bytes)),
                True)
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
    line += "; largest relative change: " + ", ".join(moves)
    if kind == 1:
        line += "; " + _verification_moves(old.get("verification", {}),
                                           new.get("verification", {}))
    return line, not diff


def fingerprint():
    """What the answers' bits may depend on besides the code, read in this
    process: run it with the environment that `answers.py` ran with."""
    import ctypes
    import platform

    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS, to be counted

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower()})

    def call(lib, name, restype):
        # numpy's and scipy's OpenBLAS builds prefix and suffix the names
        for symbol in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}",
                       f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = restype
                return fn()
        return None

    blas = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        config = call(lib, "get_config", ctypes.c_char_p)
        blas[os.path.basename(path)] = {
            "threads": call(lib, "get_num_threads", ctypes.c_int),
            "config": config and config.decode()}
    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "cpu_features": sorted(k for k, v in __cpu_features__.items()
                                   if v),
            "cpu_model": cpu}


def summary(name, data):
    """The golden record of one answers file."""
    record = {"sha256": hashlib.sha256(data).hexdigest()}
    if name.endswith(".lines.txt"):
        record["exit_codes"] = _exit_codes(data)
    kind = _kind(name)
    if kind is not None:
        obj = json.loads(data)
        invariants = {label: _get(obj, paths[kind])
                      for label, paths in INVARIANTS.items()}
        record["invariants"] = {label: value for label, value in
                                invariants.items() if value is not MISSING}
        for label in ("y", "C", "D", "floquet_bound"):
            value = _get(obj, NUMBERS[label][kind])
            if value is not MISSING:
                values = _floats(value)
                record[label] = ([float(np.abs(values).max(initial=0.0))
                                  .hex()] if label == "y"
                                 else [float(v).hex() for v in values])
    return record


def _read(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def write_golden(path, outdir):
    golden = {"environment": fingerprint(),
              "files": {name: summary(name, data)
                        for name, data in _read(outdir).items()}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def check_golden(golden, outdir, same_environment):
    """(lines, failures) of OUTDIR against the golden record: hashes if
    `same_environment`, else invariants, exit codes and TOLERANCES."""
    files = _read(outdir)
    lines, failures = [], 0
    for name in sorted(set(files) | set(golden["files"])):
        if name not in files or name not in golden["files"]:
            side = "golden file" if name not in files else "OUTDIR"
            lines.append(f"{name}: only in the {side}")
            failures += 1
            continue
        old, new = golden["files"][name], summary(name, files[name])
        if old["sha256"] == new["sha256"]:
            lines.append(f"{name}: identical")
            continue
        bad = ["hash"] if same_environment else []
        bad += [key for key in ("invariants", "exit_codes")
                if old.get(key) != new.get(key)]
        moves = []
        for label in ("y", "C", "D", "floquet_bound"):
            if label in old or label in new:
                move = (_move(old[label], new[label])
                        if label in old and label in new else None)
                moves.append(f"{label} " + ("missing" if move is None
                                            else f"{move:.2g}"))
                if label in TOLERANCES and (move is None
                                            or move > TOLERANCES[label]):
                    bad.append(label)
        lines.append(f"{name}: differs"
                     + (f"; FAILS {', '.join(bad)}" if bad else "")
                     + (f"; relative change: {', '.join(moves)}"
                        if moves else ""))
        failures += bool(bad)
    return lines, failures


def golden_main(argv):
    write = "--write" in argv
    args = [a for a in argv if a not in ("--golden", "--write")]
    if len(args) != 2:
        print(__doc__.strip().splitlines()[3], file=sys.stderr)
        return 2
    path, outdir = args
    if write:
        write_golden(path, outdir)
        return 0
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    same = golden["environment"] == fingerprint()
    lines, failures = check_golden(golden, outdir, same)
    print("\n".join(lines))
    identical = sum(line.endswith(": identical") for line in lines)
    print(f"mode: {'hashes' if same else 'tolerances (fingerprint differs)'}"
          f"; {identical} of {len(lines)} files identical; "
          f"{failures} failing")
    return 1 if failures else 0


def main(argv):
    if "--golden" in argv:
        return golden_main(argv[1:])
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
