"""Correctness checks: compare each job's output with bench.reference.

``check_result`` takes an in-process result object; ``check_cli`` takes a
CLI exit code and standard output.  Both return None when the job passed
and a short reason otherwise.  Checks are never timed.

The checks test soundness.  Every number, every class and every ``yes`` or
``no`` must agree with the reference.  The package promises ``undetermined``
whenever it has not proved an answer, so an ``undetermined`` where the
reference decides is not a wrong answer: it comes back as an ``Undecided``
reason, which the harness counts and lists apart from the failures.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref


class Undecided(str):
    """An ``undetermined`` answer where the reference decides: sound, but open."""


UNDETERMINED_CODE = 3  # CLI exit code of an undetermined verdict


def _c(pair) -> complex:
    return complex(pair[0], pair[1]) if isinstance(pair, list) else complex(pair)


def _vec_from(offset, values) -> tuple[int, np.ndarray]:
    return offset, np.asarray([_c(v) for v in values], dtype=complex)


def _on_block(lo, size, offset, values) -> np.ndarray | None:
    out = np.zeros(size, dtype=complex)
    a = offset - lo
    if a < 0 or a + len(values) > size:
        return None
    out[a : a + len(values)] = values
    return out


# -- shared numeric checks -----------------------------------------------


def orbit_norms(job, norms, best) -> str | None:
    """orbit_density_probe: per-step norms and best distance per target."""
    space, targets = job["space"], job["targets"]
    if len(norms) != job["n"] + 1:
        return f"expected {job['n'] + 1} orbit norms, got {len(norms)}"
    best_ref = [math.inf] * len(targets)
    scale = 0.0
    tvecs = t_norms = None
    for k, (w, x, a) in enumerate(ref.orbit(job["pseq"], True, job["x"], job["n"], targets)):
        if tvecs is None:
            tvecs = [w.embed(t) for t in targets]
            t_norms = [ref.norm(t, space) for t in tvecs]
        nx, na = ref.norm(x, space), ref.norm(a, space)
        if not ref.close(norms[k], nx, na):
            return f"orbit norm at step {k}: {norms[k]!r} vs reference {nx!r}"
        for t_idx, t in enumerate(tvecs):
            c = 1.0
            if job["projective"]:
                den = float(np.sum(np.abs(x) ** 2))
                c = complex(np.sum(t * np.conj(x))) / den if den > 0 else 0.0
            best_ref[t_idx] = min(best_ref[t_idx], ref.norm(c * x - t, space))
            scale = max(scale, abs(c) * na + t_norms[t_idx])
    for t_idx, (d_got, _) in enumerate(best):
        if not ref.close(d_got, best_ref[t_idx], scale):
            return f"best distance to target {t_idx}: {d_got!r} vs reference {best_ref[t_idx]!r}"
    return None


def power_column(job, offset, values) -> str | None:
    lo, x, a = ref.power_apply(job["pseq"], True, job["x"], job["n"])
    got = _on_block(lo, len(x), offset, values)
    if got is None:
        return "power_apply support leaves the reachable block"
    err = float(np.max(np.abs(got - x), initial=0.0))
    if err > ref.REL_TOL * float(np.max(a)):
        return f"power_apply differs from the banded reference by {err:.3e}"
    return None


def power_entry(job, value) -> str | None:
    vec = [job["j"], [1.0]]
    lo, x, a = ref.power_apply(job["pseq"], True, vec, job["n"])
    want = x[job["i"] - lo].real if job["i"] - lo < len(x) else 0.0
    if not ref.close(value, want, abs(want)):
        return f"power_entry {value!r} vs reference {want!r}"
    return None


def obstruction(job, probe_values, orbit_sups, deviation_sups) -> str | None:
    alpha = complex(*job["alpha"])
    half = job["half_line"]
    i = job["i"]
    for k, (w, x, a) in enumerate(ref.orbit(job["pseq"], half, job["x"], job["n"])):
        scale = abs(alpha) + float(np.max(a))
        phi_i = x[i - w.lo] if 0 <= i - w.lo < len(x) else 0.0
        if abs(probe_values[k] - (alpha + phi_i)) > ref.REL_TOL * scale:
            return f"probe value at step {k}: {probe_values[k]!r} vs {alpha + phi_i!r}"
        if not ref.close(deviation_sups[k], float(np.max(np.abs(x))), scale):
            return f"perturbation sup at step {k} differs from the reference"
        sup = max(abs(alpha), float(np.max(np.abs(alpha + x), initial=0.0)))
        if not ref.close(orbit_sups[k], sup, scale):
            return f"orbit sup at step {k}: {orbit_sups[k]!r} vs reference {sup!r}"
    return None


def line_bound(job, step_norms, holds) -> str | None:
    if not holds:
        return "norm floor |1-2p|^n reported as violated"
    for k, (w, x, a) in enumerate(ref.orbit(job["pseq"], False, job["x"], job["n"])):
        nx, na = ref.norm(x, job["space"]), ref.norm(a, job["space"])
        if not ref.close(step_norms[k], nx, na):
            return f"step norm {k}: {step_norms[k]!r} vs reference {nx!r}"
    return None


def certificate(kind, ps, lam, space, verdict, reason) -> str | None:
    want = ref.certify_expectation(kind, ps, lam, space)
    if verdict == "undetermined" and want != "undetermined":
        return Undecided(f"undetermined where the reference gives {want} ({reason})")
    if verdict != want:
        return f"verdict {verdict} where the reference expects {want} ({reason})"
    # "no by criterion" only blocks the route; a disproof claims bounded orbits
    if verdict == "no" and reason and "in fact a disproof" in reason:
        if not ref.disproof_valid(ps, lam, space):
            return "claims a disproof although some orbit is unbounded"
    return None


# -- in-process results --------------------------------------------------


def check_result(job, res) -> str | None:
    kind = job["kind"]
    if kind in ("fhc", "supercyclicity"):
        return certificate(kind, job["pseq"], job.get("lam"), job["space"],
                           res.verdict.value, res.reason)
    if kind == "orbit_probe":
        return orbit_norms(job, res.orbit_norms, res.best)
    if kind == "power_apply":
        return power_column(job, res.offset, np.asarray(res.values, dtype=complex))
    if kind == "power_entry":
        return power_entry(job, res)
    if kind == "obstruction":
        return obstruction(job, res.probe_values, res.orbit_sups, res.deviation_sups)
    if kind == "line_bound":
        return line_bound(job, res.step_norms, res.holds)
    return f"no check for job kind {kind!r}"


# -- CLI outputs -----------------------------------------------------------

CERT_CODE = {"yes": 0, "no": 0, "undetermined": UNDETERMINED_CODE}
VERDICT_KEY = {"classify": "verdict", "certify": "holds"}


def expected_code(job) -> int:
    if job["expect"] == "certify":
        return CERT_CODE[ref.certify_expectation(job["cert"], job["pseq"], job["lam"], job["space"])]
    return 0


def check_cli(job, code, stdout) -> str | None:
    want_code = expected_code(job)
    # an undetermined verdict may exit with its own code where one was decidable
    may_be_open = code == UNDETERMINED_CODE and job["expect"] in VERDICT_KEY
    if code != want_code and not may_be_open:
        return f"exit code {code}, expected {want_code}"
    try:
        env = json.loads(stdout)
    except ValueError:
        return "standard output is not one JSON document"
    if env.get("schema") != 1 or "result" not in env:
        return "JSON envelope lacks schema 1 or result"
    res = env["result"]
    if code != want_code:
        verdict = str(res.get(VERDICT_KEY[job["expect"]]))
        if verdict.lower() != "undetermined":
            return f"exit code {code} with verdict {verdict}, expected {want_code}"
    return _CLI_CHECKS[job["expect"]](job, res)


def _classify(job, res):
    want = ref.recurrence_class(job["pseq"])
    if res["verdict"] == "Undetermined":
        return Undecided(f"Undetermined where the exact criterion gives {want}")
    if res["verdict"] != want:
        return f"verdict {res['verdict']}, exact criterion gives {want}"
    return None


def _spectrum_grid(job, res):
    rows = res["rows"]
    lams = [_c(r["lam"]) for r in rows]
    mods = ref.max_root_moduli(job["p"], lams)
    band = job["band"]
    for r, m in zip(rows, mods):
        if abs(r["max_modulus"] - m) > 1e-8 * max(1.0, m):
            return f"max modulus {r['max_modulus']!r} at lam={r['lam']}, roots give {m!r}"
        if m < 1.0 - band - 1e-8 and r["member"] != "yes":
            return f"lam={r['lam']}: roots inside the unit circle but member={r['member']}"
        if m > 1.0 + band + 1e-8 and r["member"] != "no":
            return f"lam={r['lam']}: a root outside the unit circle but member={r['member']}"
    return None


def _spectrum_radius(job, res):
    r = res["radius_lower_estimate"]
    p, n, band = job["p"], job["angles"], job["band"]
    th = 2.0 * np.pi * np.arange(n) / n

    def worst(radius):
        return float(np.max(ref.max_root_moduli(p, radius * np.exp(1j * th))))

    if r == 0.0:
        if worst(0.0) < 1.0 - band - 1e-9:
            return "radius 0 although lam = 0 has every root inside the unit circle"
        return None
    if worst(r) >= 1.0 - band + 1e-9:
        return f"radius {r!r} has a root on or outside the unit circle"
    if r < 2.0 - 1e-9 and worst(r + 2.0 * job["tol"]) < 1.0 - band - 1e-9:
        return f"radius {r!r} is not maximal on the angle grid"
    return None


def _spectrum_dual(job, res):
    want = ref.dual_member(job["pseq"], job["space"])
    if res["zero_is_dual_eigenvalue"] != want:
        return f"dual eigenvalue {res['zero_is_dual_eigenvalue']}, chain growth gives {want}"
    coords = np.asarray(res["coords"], dtype=float)
    u = ref.left_kernel(job["pseq"], len(coords) - 1)
    if np.any(np.abs(coords - u) > ref.REL_TOL * np.abs(u)):
        return "left kernel coordinates differ from the recurrence"
    return None


def _coords(fin):
    return _vec_from(fin["offset"], fin["values"])


def _inverse(job, res):
    off, u = _coords(res["coordinates"])
    power = job["power"]
    if len(u) and off < power and np.any(u[: power - off] != 0):
        return "preimage is nonzero on its first power coordinates"
    lo, y, a = ref.power_apply(job["pseq"], True, (off, u), power)
    v = _on_block(lo, len(y), *_vec_from(job["v"][0], job["v"][1]))
    if v is None:
        return "preimage support does not cover the target"
    scale = max(1.0, float(np.max(np.abs(u), initial=0.0)))
    err = float(np.max(np.abs(y - v)))
    if err > 1e-9 * scale:
        return f"W^{power} u differs from v by {err:.3e}"
    return None


def _kernel(job, res):
    power = job["power"]
    vecs = res["vectors"]
    if len(vecs) != power:
        return f"{len(vecs)} kernel vectors for power {power}"
    for k, fin in enumerate(vecs):
        off, b = _coords(fin)
        full = np.zeros(off + len(b), dtype=complex)
        full[off:] = b
        head = np.zeros(power)
        head[k] = 1.0
        if len(full) < power or np.any(np.abs(full[:power] - head) > 1e-15):
            return f"kernel vector {k} does not start with e_{k}"
        lo, y, a = ref.power_apply(job["pseq"], True, (0, full), power)
        err = float(np.max(np.abs(y)))
        if err > 1e-9 * max(1.0, float(np.max(np.abs(full)))):
            return f"W^{power} maps kernel vector {k} to sup norm {err:.3e}"
    return None


def _certify(job, res):
    return certificate(job["cert"], job["pseq"], job["lam"], job["space"],
                       res["holds"], res["reason"])


def _obstruction(job, res):
    return obstruction(job, [_c(v) for v in res["probe_values"]],
                       res["orbit_sups"], res["deviation_sups"])


def _line_bound(job, res):
    return line_bound(job, res["step_norms"], res["holds"])


def _oracle(job, res):
    lo, x, _ = ref.power_apply(job["pseq"], job["half_line"], [job["j"], [1.0]], job["n"])
    k = job["i"] - lo
    exact = x[k].real if 0 <= k < len(x) else 0.0
    if abs(res["estimate"] - exact) > 5.0 * res["stderr"]:
        return (f"estimate {res['estimate']!r} is more than 5 standard errors "
                f"({res['stderr']!r}) from the exact entry {exact!r}")
    return None


def _orbit(job, res):
    job = dict(job, projective=False)
    best = [(b["distance"], b["at"]) for b in res["best"]]
    return orbit_norms(job, res["orbit_norms"], best)


_CLI_CHECKS = {
    "classify": _classify,
    "spectrum_grid": _spectrum_grid,
    "spectrum_radius": _spectrum_radius,
    "spectrum_dual": _spectrum_dual,
    "inverse": _inverse,
    "kernel": _kernel,
    "certify": _certify,
    "obstruction": _obstruction,
    "line_bound": _line_bound,
    "oracle": _oracle,
    "orbit": _orbit,
}
