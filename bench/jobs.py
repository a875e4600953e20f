"""Seeded job streams for the three benchmark workloads, and their runners.

Every job is a plain dict of generated inputs.  Streams come in cycles:
each cycle draws one job per stratum of the input properties the cost
depends on (jump probability, distance of lambda from the certified
threshold, orbit length, subcommand), then shuffles them.  A run therefore
sees the same mix of cheap and expensive jobs whatever its seed, while
the individual inputs still vary with the seed.

"""

from __future__ import annotations

import itertools
import random

from reference import step_bound

# Certify strata: narrow jump-probability bands, each paired with a band of
# |lambda| as a multiple of the certified threshold.  Low p is paired with
# high multiples, so no single pairing dominates the slow tail and every
# cycle costs about the same; p near 1/2 still costs several times more
# than p near 0.9.
CERT_P_STRATA = ((0.55, 0.58), (0.58, 0.62), (0.62, 0.66), (0.66, 0.71),
                 (0.71, 0.77), (0.77, 0.83), (0.83, 0.89), (0.89, 0.95))
CERT_F_STRATA = ((2.1, 2.5), (2.1, 2.5), (1.8, 2.1), (1.8, 2.1),
                 (1.5, 1.8), (1.5, 1.8), (1.25, 1.5), (1.25, 1.5))
LAM_ABOVE = (1.25, 2.5)
LAM_BELOW = (0.4, 0.95)
CERT_SPACES = ("c0", "l1", "l2")


def _r(rng, lo, hi, digits=4):
    return round(rng.uniform(lo, hi), digits)


def _pseq(rng, form, lo, hi):
    if form == "const":
        return {"form": "const", "values": [_r(rng, lo, hi)], "tail": None}
    if form == "list":
        vals = [_r(rng, lo, hi) for _ in range(rng.randint(1, 6))]
        return {"form": "list", "values": vals, "tail": _r(rng, lo, hi)}
    vals = [_r(rng, lo, hi) for _ in range(rng.randint(2, 4))]
    return {"form": "periodic", "values": vals, "tail": None}


def _vector(rng, half_line, max_len=4):
    """Short vector (offset, values) with nonzero end entries."""
    offset = rng.randint(0, 4) if half_line else rng.randint(-4, 4)
    n = rng.randint(1, max_len)
    vals = [_r(rng, -2.0, 2.0, 3) for _ in range(n)]
    for k in (0, -1):
        if vals[k] == 0.0:
            vals[k] = 1.0
    return [offset, vals]


def _lam(rng, ps, factor_range):
    """Real lambda of random sign with |lambda| / threshold in factor_range."""
    factor = _r(rng, *factor_range)
    return round(rng.choice((1.0, -1.0)) * factor * step_bound(ps), 4)


# -- certify -------------------------------------------------------------


def certify_cycle(rng, c, smoke=False):
    jobs = []
    for s, ((lo, hi), f_band) in enumerate(zip(CERT_P_STRATA, CERT_F_STRATA)):
        const = _pseq(rng, "const", lo, hi)
        other = _pseq(rng, "list" if s % 2 == 0 else "periodic", lo, hi)
        below_const = _pseq(rng, "const", lo, hi)
        # c never engages the criterion; it rides on the instant "below" jobs
        # of two bands per cycle, so it does not reshape the cost ladder
        below_space = "c" if (s - c) % 4 == 0 else CERT_SPACES[(s + c) % 3]
        jobs += [
            {"kind": "fhc", "pseq": const, "lam": _lam(rng, const, f_band),
             "space": CERT_SPACES[(s + c) % 3]},
            {"kind": "fhc", "pseq": other, "lam": _lam(rng, other, f_band),
             "space": CERT_SPACES[(s + c + 1) % 3]},
            {"kind": "fhc", "pseq": below_const, "lam": _lam(rng, below_const, LAM_BELOW),
             "space": below_space},
            {"kind": "supercyclicity",
             "pseq": _pseq(rng, ("const", "list", "periodic")[(s + c) % 3], lo, hi),
             "space": CERT_SPACES[(s + c + 2) % 3]},
        ]
    if smoke:
        for job in jobs:
            job["n_max"] = 8 if job["kind"] == "fhc" else 6
    rng.shuffle(jobs)
    return jobs


CERTIFY_WARMUP = {
    "kind": "fhc",
    "pseq": {"form": "const", "values": [0.75], "tail": None},
    "lam": 3.0,
    "space": "l2",
}


# -- orbit ---------------------------------------------------------------


# Orbit cycle slots.  Sizes are fixed per slot up to a 5% seeded jitter, so
# every run sees the same cost ladder; the walks and vectors vary by seed.
# orbit_density_probe: (n_max, space, targets, projective)
ORBIT_PROBES = ((200, "c0", 2, False), (350, "l2", 1, True),
                (600, "l1", 1, False), (800, "c0", 1, False))
POWER_APPLY_N = (1000, 1000)  # the two slowest slots: p90 falls between them
POWER_ENTRY_N = (150, 400)
SHORT_N = 250  # steps of the obstruction and line-bound slots
LINE_BOUND = ((0.3, 0.45, "l1"), (0.55, 0.8, "l2"))  # p range, space


def orbit_cycle(rng, c, smoke=False):
    scale = 0.1 if smoke else 1.0
    forms = ("const", "list", "periodic")

    def size(base):
        return max(2, round(base * scale * rng.uniform(0.95, 1.05)))

    def walk():
        return _pseq(rng, rng.choice(forms), 0.3, 0.9)

    jobs = []
    for n, space, n_targets, projective in ORBIT_PROBES:
        jobs.append(
            {
                "kind": "orbit_probe",
                "pseq": walk(),
                "x": _vector(rng, True),
                "targets": [_vector(rng, True) for _ in range(n_targets)],
                "space": space,
                "n": size(n),
                "threshold": 0.25,
                "projective": projective,
            }
        )
    for n in POWER_APPLY_N:
        jobs.append({"kind": "power_apply", "pseq": walk(), "x": _vector(rng, True), "n": size(n)})
    for n in POWER_ENTRY_N:
        jobs.append({"kind": "power_entry", "pseq": walk(), "n": size(n),
                     "i": rng.randint(0, 8), "j": rng.randint(0, 8)})
    for half_line in (True, False):
        jobs.append(
            {
                "kind": "obstruction",
                "pseq": walk(),
                "half_line": half_line,
                "alpha": [_r(rng, -2.0, 2.0, 3), _r(rng, -1.0, 1.0, 3)],
                "x": _vector(rng, half_line),
                "i": rng.randint(0, 3),
                "n": size(SHORT_N),
            }
        )
    for lo, hi, space in LINE_BOUND:
        jobs.append(
            {
                "kind": "line_bound",
                "pseq": {"form": "const", "values": [_r(rng, lo, hi)], "tail": None},
                "x": _vector(rng, False),
                "n": size(SHORT_N),
                "space": space,
            }
        )
    rng.shuffle(jobs)
    return jobs


ORBIT_WARMUP = {
    "kind": "orbit_probe",
    "pseq": {"form": "const", "values": [0.7], "tail": None},
    "x": [0, [1.0]],
    "targets": [[0, [1.0]]],
    "space": "c0",
    "n": 200,
    "threshold": 0.25,
    "projective": False,
}


# -- cli -----------------------------------------------------------------


def _pseq_text(ps):
    vals = ",".join(repr(v) for v in ps["values"])
    if ps["form"] == "list":
        return f"list:{vals};tail={ps['tail']!r}"
    return f"{ps['form']}:{vals}"


def _vec_text(vec):
    offset, vals = vec
    return ",".join(repr(v) for v in vals) + (f"@{offset}" if offset else "")


def _scaled(rng, lo, hi, scale):
    return max(2, int(rng.randint(lo, hi) * scale))


def _cli(argv, expect, **check):
    return {"kind": "cli", "argv": argv, "expect": expect, **check}


def cli_cycle(rng, c, smoke=False):
    scale = 0.1 if smoke else 1.0
    forms = ("const", "list", "periodic")
    jobs = []
    for form in forms:
        ps = _pseq(rng, form, 0.05, 0.95)
        jobs.append(_cli(["classify", "--pseq", _pseq_text(ps)], "classify", pseq=ps))

    p = _r(rng, 0.05, 0.95)
    a, b = -_r(rng, 1.0, 3.0, 2), _r(rng, 1.0, 3.0, 2)
    count = _scaled(rng, 200, 2000, scale)
    space = rng.choice(("c0", "c", "l1", "l2", "linf"))
    jobs.append(
        _cli(
            ["spectrum", "--mode", "grid", "--p", repr(p),
             f"--lam-grid={a!r}:{b!r}:{count}", "--space", space],
            "spectrum_grid", p=p, band=1e-8,
        )
    )
    p = _r(rng, 0.3, 0.95)
    angles = rng.randint(8, 24)
    jobs.append(
        _cli(
            ["spectrum", "--mode", "radius", "--p", repr(p), "--angles", str(angles),
             "--space", rng.choice(("c0", "l1", "l2"))],
            "spectrum_radius", p=p, angles=angles, tol=1e-6, band=1e-8,
        )
    )
    ps = _pseq(rng, rng.choice(forms), 0.2, 0.8)
    space = rng.choice(("c0", "c", "l1", "l2"))
    jobs.append(
        _cli(
            ["spectrum", "--mode", "dual", "--pseq", _pseq_text(ps), "--space", space],
            "spectrum_dual", pseq=ps, space=space,
        )
    )

    ps = _pseq(rng, rng.choice(forms), 0.6, 0.95)
    v = _vector(rng, True)
    power = rng.randint(1, 4)
    jobs.append(
        _cli(
            ["inverse", "--pseq", _pseq_text(ps), f"--v={_vec_text(v)}", "--power", str(power)],
            "inverse", pseq=ps, v=v, power=power,
        )
    )
    ps = _pseq(rng, rng.choice(("const", "periodic")), 0.6, 0.9)
    power = rng.randint(1, 4)
    jobs.append(
        _cli(["kernel", "--pseq", _pseq_text(ps), "--power", str(power)],
             "kernel", pseq=ps, power=power)
    )

    ps = _pseq(rng, rng.choice(("const", "periodic")), 0.7, 0.95)
    space = rng.choice(("c0", "l1", "l2", "c"))
    if rng.random() < 0.6:
        lam = _lam(rng, ps, LAM_ABOVE if rng.random() < 0.7 else LAM_BELOW)
        argv = ["certify", "fhc", "--pseq", _pseq_text(ps), f"--lambda={lam!r}"]
        jobs.append(_cli(argv + ["--space", space], "certify",
                         cert="fhc", pseq=ps, lam=lam, space=space))
    else:
        argv = ["certify", "supercyclicity", "--pseq", _pseq_text(ps)]
        jobs.append(_cli(argv + ["--space", space], "certify",
                         cert="supercyclicity", pseq=ps, lam=None, space=space))

    ps = _pseq(rng, rng.choice(forms), 0.2, 0.9)
    if rng.random() < 0.5:
        half_line = rng.random() < 0.5
        alpha = [_r(rng, -2.0, 2.0, 3), _r(rng, -1.0, 1.0, 3)]
        x = _vector(rng, half_line)
        n = _scaled(rng, 30, 80, scale)
        i = rng.randint(0, 3)
        lattice = "half-line" if half_line else "line"
        jobs.append(
            _cli(
                ["probe", "obstruction", "--pseq", _pseq_text(ps), "--lattice", lattice,
                 f"--alpha={complex(*alpha)!r}", f"--perturb={_vec_text(x)}",
                 "--i", str(i), "--n-max", str(n)],
                "obstruction", pseq=ps, half_line=half_line, alpha=alpha, x=x, i=i, n=n,
            )
        )
    else:
        p = _r(rng, 0.3, 0.45) if rng.random() < 0.5 else _r(rng, 0.55, 0.8)
        ps = {"form": "const", "values": [p], "tail": None}
        x = _vector(rng, False)
        n = _scaled(rng, 10, 40, scale)
        space = rng.choice(("c0", "l1", "l2"))
        jobs.append(
            _cli(
                ["probe", "line-bound", "--pseq", _pseq_text(ps), f"--x={_vec_text(x)}",
                 "--n", str(n), "--space", space],
                "line_bound", pseq=ps, x=x, n=n, space=space,
            )
        )

    ps = _pseq(rng, rng.choice(forms), 0.3, 0.8)
    half_line = rng.random() < 0.7
    n = _scaled(rng, 20, 60, scale)
    i = rng.randint(0, 4)
    drift = 2.0 * ps["values"][0] - 1.0
    j = i + int(round(n * drift))
    j += (j - i - n) % 2  # same parity as n steps from i
    if half_line:
        j = max(j, 0)
    samples = _scaled(rng, 80_000, 120_000, scale)
    jobs.append(
        _cli(
            ["oracle", "--pseq", _pseq_text(ps), "--lattice",
             "half-line" if half_line else "line", "--n", str(n), "--i", str(i),
             "--j", str(j), "--samples", str(samples),
             "--seed", str(rng.randrange(2**32))],
            "oracle", pseq=ps, half_line=half_line, n=n, i=i, j=j,
        )
    )

    ps = _pseq(rng, rng.choice(forms), 0.3, 0.9)
    x = _vector(rng, True)
    targets = [_vector(rng, True) for _ in range(rng.randint(1, 2))]
    n = _scaled(rng, 40, 100, scale)
    space = rng.choice(("c0", "l1", "l2"))
    jobs.append(
        _cli(
            ["orbit", "--pseq", _pseq_text(ps), f"--x={_vec_text(x)}",
             "--targets=" + "|".join(_vec_text(t) for t in targets),
             "--space", space, "--n-max", str(n)],
            "orbit", pseq=ps, x=x, targets=targets, space=space, n=n,
        )
    )
    rng.shuffle(jobs)
    return jobs


CLI_WARMUP = _cli(
    ["classify", "--pseq", "const:0.6"],
    "classify",
    pseq={"form": "const", "values": [0.6], "tail": None},
)

CYCLES = {"certify": certify_cycle, "orbit": orbit_cycle, "cli": cli_cycle}
WARMUPS = {"certify": CERTIFY_WARMUP, "orbit": ORBIT_WARMUP, "cli": CLI_WARMUP}


def stream(workload, seed, smoke=False):
    """Endless job stream for a workload; the same seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    cycle = CYCLES[workload]
    for c in itertools.count():
        yield from cycle(rng, c, smoke)


# -- in-process runner ---------------------------------------------------


def _pseq_obj(wd, ps):
    if ps["form"] == "const":
        return wd.Constant(ps["values"][0])
    if ps["form"] == "list":
        return wd.ListWithTail(tuple(ps["values"]), ps["tail"])
    return wd.Periodic(tuple(ps["values"]))


def _finseq(wd, vec, lattice):
    return wd.FinSeq.from_values(vec[1], offset=vec[0], lattice=lattice)


def run_job(wd, job):
    """Run one in-process job against the walkdyn package ``wd``."""
    kind = job["kind"]
    half = wd.Lattice.HALF_LINE
    if kind in ("fhc", "supercyclicity"):
        op = wd.make_walk(half, _pseq_obj(wd, job["pseq"]))
        space = wd.SpaceSpec.parse(job["space"])
        extra = {"n_max": job["n_max"]} if "n_max" in job else {}
        if kind == "fhc":
            return wd.fhc_chaos_certificate(op, job["lam"], space, **extra)
        return wd.supercyclicity_criterion_certificate(op, space, **extra)
    if kind == "orbit_probe":
        op = wd.make_walk(half, _pseq_obj(wd, job["pseq"]))
        return wd.orbit_density_probe(
            op,
            _finseq(wd, job["x"], half),
            [_finseq(wd, t, half) for t in job["targets"]],
            space=wd.SpaceSpec.parse(job["space"]),
            n_max=job["n"],
            threshold=job["threshold"],
            projective=job["projective"],
        )
    if kind == "power_apply":
        op = wd.make_walk(half, _pseq_obj(wd, job["pseq"]))
        return op.power_apply(job["n"], _finseq(wd, job["x"], half))
    if kind == "power_entry":
        op = wd.make_walk(half, _pseq_obj(wd, job["pseq"]))
        return op.power_entry(job["n"], job["i"], job["j"])
    if kind == "obstruction":
        lattice = half if job["half_line"] else wd.Lattice.LINE
        op = wd.make_walk(lattice, _pseq_obj(wd, job["pseq"]))
        return wd.constant_tail_obstruction(
            op, complex(*job["alpha"]), _finseq(wd, job["x"], lattice),
            i_probe=job["i"], n_max=job["n"],
        )
    if kind == "line_bound":
        line = wd.Lattice.LINE
        op = wd.make_walk(line, _pseq_obj(wd, job["pseq"]))
        return wd.line_walk_lower_bound(
            op, _finseq(wd, job["x"], line), job["n"], wd.SpaceSpec.parse(job["space"])
        )
    raise ValueError(f"unknown job kind {kind!r}")


def describe(job) -> str:
    """One-line description of a job's inputs for failure listings."""
    if job["kind"] == "cli":
        return "walkdyn " + " ".join(job["argv"])
    parts = [job["kind"]]
    for key, val in job.items():
        if key == "kind":
            continue
        if key == "pseq":
            val = _pseq_text(val)
        parts.append(f"{key}={val}")
    return " ".join(parts)
