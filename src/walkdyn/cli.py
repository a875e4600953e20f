"""Command-line front end for the walk-operator toolkit.

Every run prints one report to standard output: a JSON envelope carrying
the schema version, the tool version, the effective configuration (with
the exact argv, so any report can be re-run), and the result.  Coordinate
lists and verdict grids can be requested as CSV instead.

Exit status: 0 on success, 2 on invalid input, a result past the float
range or an array too large to allocate (one ``error:`` line on standard
error), 3 when the computation finished but the headline outcome is
undetermined (or a preimage tail refused to decay).  Complex numbers
appear in JSON as [real, imag] pairs.  A --tol must lie strictly between
0 and 1.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import enum
import json
import math
import sys

from . import __version__
from .classify import Classification, Verdict, classify
from .dynamics import (
    constant_tail_obstruction,
    fhc_chaos_certificate,
    line_walk_lower_bound,
    lower_density_estimate,
    orbit_density_probe,
    supercyclicity_criterion_certificate,
)
from .inverse_kernel import (
    TailNotDecayingError,
    kernel_basis,
    kernel_window_for_tol,
    right_inverse_power,
    step_norm_bound,
)
from .operators import Constant, make_walk, parse_pseq, pseq_text
from .seqspace import FinSeq, Lattice, SpaceSpec
from .spectral import (
    certified_disk_radius,
    dual_point_spectrum_report,
    point_spectrum_probe,
    symmetric_dual_interval_check,
)
from .walk_oracle import WalkConfig, estimate_return_mass, estimate_transition

SCHEMA = 1

def _jsonable(obj):
    """Recursively convert report values into JSON-safe structures."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, enum.Enum):
        return obj.value
    return str(obj)


def _pick(report, fields: str) -> dict:
    """Result entries read off a report.

    ``fields`` lists the entries in order, separated by spaces: ``key``
    reads the attribute of that name, ``key=attribute`` reads
    ``attribute`` under the name ``key``.
    """
    out = {}
    for field in fields.split():
        key, _, attr = field.partition("=")
        out[key] = getattr(report, attr or key)
    return out


def _fields(report) -> dict:
    """A report dataclass as a dict of all its fields, in declaration order."""
    return _pick(report, " ".join(f.name for f in dataclasses.fields(report)))


def _finseq_json(x: FinSeq) -> dict:
    t = x.trim()
    values = _jsonable(t.values.tolist())
    return {"lattice": t.lattice.value, "offset": t.offset, "values": values}


def parse_vector(text: str, lattice: Lattice) -> FinSeq:
    """Vector literals: 'e0', 'e-2', or '1,0.5,-0.25' with optional '@off'."""
    t = text.strip()
    if not t:
        raise ValueError("empty vector literal")
    if t[0] == "e" and (t[1:].isdigit() or (t[1:2] == "-" and t[2:].isdigit())):
        return FinSeq.unit(int(t[1:]), lattice)
    offset = 0
    if "@" in t:
        t, _, otext = t.partition("@")
        try:
            offset = int(otext)
        except ValueError:
            raise ValueError(f"bad offset in vector literal: {otext!r}") from None
    try:
        values = [complex(tok) for tok in t.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad vector literal: {text!r}") from None
    if not values:
        raise ValueError(f"empty vector literal: {text!r}")
    if not all(map(cmath.isfinite, values)):
        raise ValueError(f"vector entries must be finite: {text!r}")
    return FinSeq.from_values(values, offset=offset, lattice=lattice)


def parse_grid(text: str) -> list[float]:
    """Real grid literal 'start:stop:count' (count evenly spaced points)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid literal must be start:stop:count, got {text!r}")
    a, b, k = float(parts[0]), float(parts[1]), int(parts[2])
    if k < 1:
        raise ValueError("grid count must be at least 1")
    if k == 1:
        return [a]
    return [a + (b - a) * i / (k - 1) for i in range(k)]


def _tol(args, builtin: float) -> float:
    """--tol when given, which must lie strictly between 0 and 1, else ``builtin``."""
    v = getattr(args, "tol", None)
    if v is None:
        return builtin
    if not (0 < v < 1):
        raise ValueError("--tol must lie strictly between 0 and 1")
    return v


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="walkdyn",
        description="Probes and certificates for random-walk transition operators "
        "acting on sequence spaces.",
        epilog="Reports embed schema, tool version and the exact argv.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add_common(p, lattice=True, fmt=True):
        if lattice:
            p.add_argument(
                "--lattice",
                choices=[l.value for l in Lattice],
                default=Lattice.HALF_LINE.value,
                help="state space of the walk (default half-line)",
            )
        if fmt:
            p.add_argument(
                "--format",
                choices=["json", "csv"],
                default="json",
                help="output format (csv only where coordinate/row data exists)",
            )

    p = sub.add_parser("classify", help="recurrence trichotomy of the walk")
    p.add_argument("--pseq", required=True, help="probability sequence, e.g. const:0.7")
    p.add_argument("--horizon", type=int, default=2000)
    p.add_argument("--method", choices=["auto", "series"], default="auto")
    add_common(p, fmt=False)

    p = sub.add_parser("spectrum", help="point-spectrum probes and dual eigenvectors")
    p.add_argument(
        "--mode",
        choices=["grid", "radius", "dual", "symmetric"],
        default="grid",
    )
    p.add_argument("--p", type=float, help="constant jump probability for grid/radius")
    p.add_argument("--pseq", help="probability sequence (dual mode, or const:p)")
    p.add_argument("--space", help="c0, c, linf or l<q> (e.g. l2); default c0")
    p.add_argument("--lam", type=complex, help="single eigenvalue candidate")
    p.add_argument("--lam-grid", help="real grid start:stop:count")
    p.add_argument("--band", type=float, help="unit-circle caution band (default 1e-8)")
    p.add_argument("--angles", type=int, help="angle count (radius mode, default 24)")
    p.add_argument("--n-max", type=int, help="coordinate horizon (default 200)")
    p.add_argument("--tol", type=float, help="radius search tolerance")
    add_common(p, lattice=False)

    p = sub.add_parser("inverse", help="preimages under the walk operator")
    p.add_argument("--pseq", required=True)
    p.add_argument("--v", required=True, help="target vector literal")
    p.add_argument("--power", type=int, default=1, help="apply the inverse this often")
    p.add_argument("--tol", type=float, default=None, help="tail truncation tolerance")
    p.add_argument("--max-support", type=int, default=None, metavar="N",
                   help="cut each preimage at index max(N, last target index + 2), "
                   "decayed or not")
    add_common(p, lattice=False)

    p = sub.add_parser("kernel", help="kernel basis of a power of the walk operator")
    p.add_argument("--pseq", required=True)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--window", type=int, default=None, help="rows to solve (auto-sized)")
    p.add_argument("--tol", type=float, default=None, help="tail truncation tolerance")
    add_common(p, lattice=False)

    p = sub.add_parser("certify", help="dynamics certificates with witnesses")
    p.add_argument("property", choices=["fhc", "supercyclicity"])
    p.add_argument("--pseq", required=True)
    p.add_argument("--lambda", "--lam", dest="lam", type=complex, default=None)
    p.add_argument("--space", default="c0")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--tol", type=float, default=None, help="fhc only")
    add_common(p, lattice=False, fmt=False)

    p = sub.add_parser("probe", help="obstruction probes (limit value, norm floor)")
    p.add_argument("kind", choices=["obstruction", "line-bound"])
    p.add_argument("--pseq", required=True)
    p.add_argument("--alpha", type=complex, default=None, help="tail limit (obstruction)")
    p.add_argument("--perturb", default=None, help="perturbation vector (obstruction)")
    p.add_argument("--i", type=int, default=0, help="probe coordinate (obstruction)")
    p.add_argument("--x", default=None, help="start vector (line-bound)")
    p.add_argument("--n", type=int, default=15, help="power (line-bound)")
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--space", default="c0")
    add_common(p, fmt=False)

    p = sub.add_parser("oracle", help="Monte Carlo walk statistics, reproducible by seed")
    p.add_argument("--stat", choices=["transition", "return-mass"], default="transition")
    p.add_argument("--pseq", required=True)
    p.add_argument("--n", type=int, default=None, help="step count (transition)")
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--j", type=int, default=None, help="arrival state (transition)")
    p.add_argument("--horizon", type=int, default=None, help="steps (return-mass)")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    add_common(p)

    p = sub.add_parser("orbit", help="orbit-to-target distance probe")
    p.add_argument("--pseq", required=True)
    p.add_argument("--x", required=True, help="start vector literal")
    p.add_argument("--targets", default="e0", help="vector literals joined by '|'")
    p.add_argument("--space", default="c0")
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--threshold", type=float, default=0.25)
    p.add_argument("--projective", action="store_true")
    add_common(p, fmt=False)

    return ap


def _emit_json(config: dict, result: dict) -> None:
    envelope = {
        "schema": SCHEMA,
        "tool": {"name": "walkdyn", "version": __version__},
        "config": _jsonable(config),
        "result": _jsonable(result),
    }
    json.dump(envelope, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit_csv(header: list[str], rows: list[list]) -> None:
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)


def _coords_csv(x: FinSeq) -> tuple[list[str], list[list]]:
    return ["index", "real", "imag"], [[i, v.real, v.imag] for i, v in x.trim().items()]


def _table_csv(rows: list[dict], header: str) -> tuple[list[str], list[list]]:
    """CSV of the entries that ``header`` names in each result row.

    A column ``x_re`` or ``x_im`` that is not an entry itself holds the
    real or imaginary part of the entry ``x``.
    """
    keys = header.split()

    def cell(row: dict, key: str):
        if key in row:
            return row[key]
        name, part = key.rsplit("_", 1)
        return row[name].real if part == "re" else row[name].imag

    return keys, [[cell(row, k) for k in keys] for row in rows]


def _run_classify(args, config) -> tuple[dict, int, tuple | None]:
    pseq = parse_pseq(args.pseq)
    lattice = Lattice(args.lattice)
    config.update(pseq=pseq_text(pseq), lattice=lattice.value, horizon=args.horizon,
                  method=args.method)
    v = classify(pseq, horizon=args.horizon, lattice=lattice, method=args.method)

    series = "outcome decided_at terms partial_sums_head=head partial_sum_final=final"
    result = {
        # "positive-recurrent" -> "PositiveRecurrent"
        "verdict": v.verdict.value.title().replace("-", ""),
        **_pick(v, "method horizon"),
        "evidence": {
            "transience_series": _pick(v.transience_series, series),
            "invariant_mass_series": _pick(v.invariant_mass_series, series),
        },
        "detail": v.detail,
    }
    return result, 3 if v.verdict is Classification.UNDETERMINED else 0, None


def _spectrum_p(args) -> float:
    if (args.p is None) == (args.pseq is None):
        raise ValueError("give exactly one of --p and --pseq")
    if args.p is not None:
        return args.p
    pseq = parse_pseq(args.pseq)
    if isinstance(pseq, Constant):
        return pseq.p
    raise ValueError("grid/radius modes need a constant probability (use --p)")


# the flags each spectrum mode reads, besides --mode and --format
_SPECTRUM_FLAGS = {
    "grid": "p pseq space lam lam_grid band",
    "radius": "p pseq space band angles tol",
    "dual": "pseq space n_max",
    "symmetric": "lam_grid n_max",
}


def _run_spectrum(args, config) -> tuple[dict, int, tuple | None]:
    allowed = _SPECTRUM_FLAGS[args.mode].split()
    for flag in "p pseq space lam lam_grid band angles n_max tol".split():
        if getattr(args, flag) is not None and flag not in allowed:
            raise ValueError(f"spectrum --mode {args.mode} takes no --{flag.replace('_', '-')}")
    space = SpaceSpec.parse(args.space or "c0")
    band = 1e-8 if args.band is None else args.band
    if not band >= 0:
        raise ValueError(f"--band must be nonnegative, got {band}")
    angles = 24 if args.angles is None else args.angles
    n_max = 200 if args.n_max is None else args.n_max
    config.update(mode=args.mode, space=str(space))
    if args.mode == "grid":
        p = _spectrum_p(args)
        if args.lam is not None and args.lam_grid:
            raise ValueError("give either --lam or --lam-grid, not both")
        if args.lam is not None:
            lams = [args.lam]
        elif args.lam_grid:
            lams = [complex(v) for v in parse_grid(args.lam_grid)]
        else:
            raise ValueError("grid mode needs --lam or --lam-grid")
        config.update(p=p, band=band, lam_grid=args.lam_grid, lam=args.lam)
        verdicts = [point_spectrum_probe(p, lam, space, band=band) for lam in lams]
        evidence = ("max_modulus", "alpha", "beta", "discriminant", "defective")
        rows = [
            {"lam": v.lam, "member": v.member.value, **{k: v.evidence[k] for k in evidence}}
            for v in verdicts
        ]
        counts = {m.value: sum(v.member is m for v in verdicts) for m in Verdict}
        csv_data = _table_csv(
            rows, "lam_re lam_im member max_modulus alpha_re alpha_im beta_re beta_im defective"
        )
        return {"space": str(space), "p": p, "rows": rows, "counts": counts}, 0, csv_data
    if args.mode == "radius":
        p = _spectrum_p(args)
        tol = _tol(args, 1e-6)
        if angles < 1:
            raise ValueError(f"--angles must be at least 1, got {angles}")
        config.update(p=p, angles=angles, tol=tol, band=band)
        r = certified_disk_radius(p, space, n_angles=angles, tol=tol, band=band)
        result = {"space": str(space), "p": p, "radius_lower_estimate": r,
                  "note": "largest grid-certified disk radius; a lower estimate only"}
        return result, 0, None
    if args.mode == "dual":
        if not args.pseq:
            raise ValueError("dual mode needs --pseq")
        pseq = parse_pseq(args.pseq)
        config.update(pseq=pseq_text(pseq), n_max=n_max)
        return _fields(dual_point_spectrum_report(pseq, space, n_max=n_max)), 0, None
    # symmetric interval check at p = 1/2
    lams = tuple(parse_grid(args.lam_grid)) if args.lam_grid else None
    config.update(n_max=n_max, lam_grid=args.lam_grid)
    rep = symmetric_dual_interval_check(n_max=n_max, lambdas=lams)
    return _pick(rep, "lambdas certified all_certified symmetric n_max conclusion"), 0, None


def _run_inverse(args, config) -> tuple[dict, int, tuple | None]:
    pseq = parse_pseq(args.pseq)
    op = make_walk(Lattice.HALF_LINE, pseq)
    v = parse_vector(args.v, Lattice.HALF_LINE)
    tol = _tol(args, 1e-13)
    if args.power < 0:
        raise ValueError("--power must be nonnegative")
    config.update(pseq=pseq_text(pseq), v=args.v, power=args.power, tolerance=tol,
                  max_support=args.max_support)
    u = right_inverse_power(op, v, args.power, tol=tol, max_support=args.max_support)
    bound = step_norm_bound(op)
    result = {
        "coordinates": _finseq_json(u),
        "residual_sup": (op.power_apply(args.power, u) - v).sup_abs(),
        "step_norm_bound": bound if math.isfinite(bound) else None,
    }
    return result, 0, _coords_csv(u)


def _run_kernel(args, config) -> tuple[dict, int, tuple | None]:
    pseq = parse_pseq(args.pseq)
    op = make_walk(Lattice.HALF_LINE, pseq)
    tol = _tol(args, 1e-12)
    if args.power < 1:
        raise ValueError("--power must be at least 1")
    window = args.window
    if window is None:
        window = kernel_window_for_tol(pseq, tol) + args.power
    config.update(pseq=pseq_text(pseq), power=args.power, window=window, tolerance=tol)
    basis = kernel_basis(op, args.power, window, tol=tol)
    result = {
        "power": args.power,
        "window": window,
        "vectors": [_finseq_json(b) for b in basis],
        "residual_sups": [op.power_apply(args.power, b).sup_abs() for b in basis],
    }
    rows = [[k] + row for k, b in enumerate(basis) for row in _coords_csv(b)[1]]
    return result, 0, (["vector", "index", "real", "imag"], rows)


def _run_certify(args, config) -> tuple[dict, int, tuple | None]:
    pseq = parse_pseq(args.pseq)
    op = make_walk(Lattice.HALF_LINE, pseq)
    space = SpaceSpec.parse(args.space)
    config.update(pseq=pseq_text(pseq), space=str(space))
    if args.property == "fhc":
        if args.lam is None:
            raise ValueError("certify fhc needs --lambda")
        n_max = args.n_max if args.n_max is not None else 20
        tol = _tol(args, 1e-6)
        config.update(n_max=n_max, tolerance=tol)
        cert = fhc_chaos_certificate(op, args.lam, space, n_max=n_max, tol=tol)
    else:
        if args.lam is not None:
            raise ValueError(
                "the supercyclicity certificate takes no --lambda (scalars "
                "are quantified away by the projective orbit)"
            )
        if args.tol is not None:
            raise ValueError("the supercyclicity certificate takes no --tol")
        n_max = args.n_max if args.n_max is not None else 16
        config["n_max"] = n_max
        cert = supercyclicity_criterion_certificate(op, space, n_max=n_max)
    config.update(lam=args.lam, property=args.property)
    result = _pick(cert, "kind holds=verdict reason params witness")
    return result, 3 if cert.verdict is Verdict.UNDETERMINED else 0, None


def _run_probe(args, config) -> tuple[dict, int, tuple | None]:
    pseq = parse_pseq(args.pseq)
    if args.kind == "obstruction":
        lattice = Lattice(args.lattice)
        op = make_walk(lattice, pseq)
        if args.alpha is None:
            raise ValueError("probe obstruction needs --alpha")
        perturb = (
            parse_vector(args.perturb, lattice) if args.perturb else FinSeq.zero(lattice)
        )
        config.update(pseq=pseq_text(pseq), lattice=lattice.value, alpha=args.alpha,
                      perturb=args.perturb, i=args.i, n_max=args.n_max)
        rep = constant_tail_obstruction(op, args.alpha, perturb, i_probe=args.i,
                                        n_max=args.n_max)
        return _fields(rep), 0, None
    # line-bound
    op = make_walk(Lattice.LINE, pseq)
    if args.x is None:
        raise ValueError("probe line-bound needs --x")
    x = parse_vector(args.x, Lattice.LINE)
    space = SpaceSpec.parse(args.space)
    config.update(pseq=pseq_text(pseq), x=args.x, n=args.n, space=str(space))
    rep = line_walk_lower_bound(op, x, args.n, space)
    return _fields(rep), 0 if rep.holds else 3, None


def _run_oracle(args, config) -> tuple[dict, int, tuple | None]:
    pseq = parse_pseq(args.pseq)
    lattice = Lattice(args.lattice)
    cfg = WalkConfig(lattice=lattice, pseq=pseq, seed=args.seed, samples=args.samples)
    config.update(pseq=pseq_text(pseq), lattice=lattice.value, stat=args.stat,
                  samples=args.samples, seed=args.seed)
    if args.stat == "transition":
        if args.n is None or args.j is None:
            raise ValueError("oracle --stat transition needs --n and --j")
        config.update(n=args.n, i=args.i, j=args.j)
        est, err = estimate_transition(cfg, args.n, args.i, args.j)
        result = {"estimate": est, "stderr": err, **_pick(args, "samples seed n i j")}
        return result, 0, _table_csv([result], "n i j estimate stderr samples seed")
    if args.horizon is None:
        raise ValueError("oracle --stat return-mass needs --horizon")
    config.update(horizon=args.horizon, i=args.i)
    est = estimate_return_mass(cfg, args.horizon, args.i)
    result = {"estimate": est, "stderr": None, **_pick(args, "samples seed horizon i")}
    return result, 0, _table_csv([result], "horizon i estimate samples seed")


def _run_orbit(args, config) -> tuple[dict, int, tuple | None]:
    pseq = parse_pseq(args.pseq)
    lattice = Lattice(args.lattice)
    op = make_walk(lattice, pseq)
    x = parse_vector(args.x, lattice)
    targets = [parse_vector(t, lattice) for t in args.targets.split("|") if t.strip()]
    if not targets:
        raise ValueError("orbit needs at least one target")
    space = SpaceSpec.parse(args.space)
    config.update(pseq=pseq_text(pseq), lattice=lattice.value, x=args.x,
                  targets=args.targets, space=str(space), n_max=args.n_max,
                  threshold=args.threshold, projective=args.projective)
    rep = orbit_density_probe(op, x, targets, space=space, n_max=args.n_max,
                              threshold=args.threshold, projective=args.projective)
    result = {
        **_pick(rep, "n_max space threshold projective orbit_norms"),
        "best": [{"distance": d, "at": t} for d, t in rep.best],
        "visits": rep.visits,
        "lower_density_estimates": [
            lower_density_estimate(v, rep.n_max) if rep.n_max >= 1 else 0.0
            for v in rep.visits
        ],
        "note": "small minima are evidence, never proof of orbit density",
    }
    return result, 0, None


_HANDLERS = {
    "classify": _run_classify,
    "spectrum": _run_spectrum,
    "inverse": _run_inverse,
    "kernel": _run_kernel,
    "certify": _run_certify,
    "probe": _run_probe,
    "oracle": _run_oracle,
    "orbit": _run_orbit,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    config: dict = {"argv": argv, "subcommand": args.subcommand}
    fmt = getattr(args, "format", "json")
    config["format"] = fmt
    try:
        result, code, csv_data = _HANDLERS[args.subcommand](args, config)
    except TailNotDecayingError as exc:
        _emit_json(
            config,
            {
                "error": {
                    "type": "tail-not-decaying",
                    "message": str(exc),
                    "last_magnitude": exc.last_magnitude,
                }
            },
        )
        return 3
    except (ValueError, TypeError, OverflowError, MemoryError) as exc:
        text = exc.args[-1] if isinstance(exc, OverflowError) and exc.args else exc  # (34, text)
        print(f"error: {text}", file=sys.stderr)
        return 2
    if fmt == "csv":
        if csv_data is None:
            print("error: csv output is not available for this subcommand", file=sys.stderr)
            return 2
        _emit_csv(*csv_data)
        return code
    _emit_json(config, result)
    return code


if __name__ == "__main__":
    sys.exit(main())
