#!/usr/bin/env python3
"""Compare re-recorded golden outputs with the files they replace.

    python scripts/compare_goldens.py OLD_DIR NEW_DIR

Every ``*.json`` file present in both directories is parsed and compared
value by value.  A pair passes when it has the same keys in the same
order, the same array lengths, equal strings, integers, booleans and
nulls (so the same exit codes, verdicts and reasons), and every other
number within 1e-12 relative.

Round-off witnesses of the certificates are exempt from the tolerance:
``inverse_residual``, ``step_residual``, ``forward_scaled_tail``,
``periodic_residual``, ``max_product``, and the ``forward_norms`` past
``annihilation_index``.  Each may move, but only while it and its
certificate gate are finite and it stays under the gate in both files.
The tail of ``forward_norms`` is judged through the sum that the gate
reads, or, where that rescaled sum leaves the float range, through the
report's own ``forward_scaled_tail``.  The gates are the current ones, so
an old file is judged by them too: for fhc each step's relative residual
is at most 1e-10, and the rescaled forward tail at most 1e-10 times the
rescaled head.

Prints one line per pair and exits 1 if any pair fails, 2 if the
directories share no file.
"""

import argparse
import functools
import json
import math
import operator
import sys
from pathlib import Path

REL_TOL = 1e-12


def _rescale(f: float, scale: float, n: int) -> float:
    """f / scale**n; when the power leaves the float range, n divisions by scale."""
    try:
        return f / scale**n
    except OverflowError:
        return functools.reduce(operator.truediv, [scale] * n, f)


def roundoff(doc) -> dict:
    """Round-off witness name -> (value, gate) for a certificate report."""
    result = doc.get("result") if isinstance(doc, dict) else None
    kind = result.get("kind") if isinstance(result, dict) else None
    w = result.get("witness", {}) if kind else {}
    if "annihilation_index" not in w:
        return {}
    # float() reads the strings "inf", "-inf" and "nan" the CLI writes for non-finite floats
    m, fwd = w["annihilation_index"], [float(f) for f in w["forward_norms"]]
    if kind == "fhc-chaos":
        re, im = result["params"]["lam"]
        scale = max(1.0, math.hypot(re, im))
        scaled = [_rescale(f, scale, n) for n, f in enumerate(fwd)]
        tail_gate = 1e-10 * max(scaled[: m + 1])
        tail = math.fsum(scaled[m:])
        return {
            "inverse_residual": (float(w["inverse_residual"]), 1e-10),
            "forward_scaled_tail": (float(w["forward_scaled_tail"]), tail_gate),
            "periodic_residual": (float(w["periodic_residual"]), 1e-10),
            "forward_norms": (
                tail if math.isfinite(tail) else float(w["forward_scaled_tail"]),
                tail_gate,
            ),
        }
    if kind == "supercyclicity":
        back = [float(b) for b in w["backward_norms"]]
        return {
            "step_residual": (float(w["step_residual"]), 1e-12),
            "inverse_residual": (
                float(w["inverse_residual"]),
                1e-11 * max(1.0, back[0]) * max(1.0, float(w["backward_dynamic_range"])),
            ),
            "max_product": (float(w["max_product"]), 1e-10 * max(1.0, max(back))),
            "forward_norms": (math.fsum(fwd[m:]), 1e-12 * max(1.0, fwd[0])),
        }
    return {}


def _exempt(path: tuple, m: int | None, gates_old: dict, gates_new: dict) -> str | None:
    """The witness name when ``path`` is a round-off witness under its gate
    in both files, the value and the gate finite, else None."""
    if len(path) < 3 or path[:2] != ("result", "witness"):
        return None
    name = path[2]
    if name == "forward_norms":
        if len(path) != 4 or m is None or path[3] < m:
            return None
    elif len(path) != 3:
        return None
    if name not in gates_old or name not in gates_new:
        return None
    under = all(
        math.isfinite(v) and math.isfinite(g) and v <= g
        for v, g in (gates_old[name], gates_new[name])
    )
    return name if under else None


def compare(old_doc, new_doc) -> tuple[list[str], float, set]:
    """(failures, largest relative difference among checked numbers,
    round-off witnesses that moved)."""
    gates_old, gates_new = roundoff(old_doc), roundoff(new_doc)
    m = new_doc["result"]["witness"]["annihilation_index"] if gates_new else None
    failures: list[str] = []
    moved: set = set()
    worst = 0.0

    def walk(a, b, path):
        nonlocal worst
        where = "/".join(map(str, path)) or "<root>"
        if isinstance(a, dict) and isinstance(b, dict):
            if list(a) != list(b):
                failures.append(f"{where}: keys {list(a)} != {list(b)}")
                return
            for key in a:
                walk(a[key], b[key], path + (key,))
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                failures.append(f"{where}: length {len(a)} != {len(b)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, path + (i,))
        elif isinstance(a, float) and isinstance(b, float):
            if a == b or (math.isnan(a) and math.isnan(b)):
                return
            name = _exempt(path, m, gates_old, gates_new)
            if name is not None:
                moved.add(name)
                return
            rel = abs(a - b) / max(abs(a), abs(b))
            if not rel <= REL_TOL:
                failures.append(f"{where}: {a!r} -> {b!r} (relative {rel:.2e})")
            else:
                worst = max(worst, rel)
        elif type(a) is not type(b) or a != b:
            failures.append(f"{where}: {a!r} -> {b!r}")

    walk(old_doc, new_doc, ())
    return failures, worst, moved


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args()

    names = sorted(p.name for p in args.old.glob("*.json") if (args.new / p.name).is_file())
    if not names:
        print("the directories share no .json file", file=sys.stderr)
        return 2
    failed = 0
    for name in names:
        old_text, new_text = (args.old / name).read_text(), (args.new / name).read_text()
        if old_text == new_text:
            print(f"{name}: identical")
            continue
        old_doc, new_doc = json.loads(old_text), json.loads(new_text)
        failures, worst, moved = compare(old_doc, new_doc)
        if failures:
            failed += 1
            print(f"{name}: FAIL")
            for line in failures:
                print(f"  {line}")
            continue
        print(f"{name}: ok, largest relative difference {worst:.1e}")
        gates_old, gates_new = roundoff(old_doc), roundoff(new_doc)
        for witness in sorted(moved):
            (v0, _), (v1, gate) = gates_old[witness], gates_new[witness]
            print(f"  {witness}: {v0:.3e} -> {v1:.3e}, gate {gate:.3e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
