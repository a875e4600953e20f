#!/usr/bin/env python3
"""Digest of the first results of a benchmark workload, as this checkout computes them.

    python scripts/result_digest.py --workload certify|orbit|cli --seed N --jobs K [--per-job]

Draws the first K jobs of the seeded stream in ``bench/jobs.py`` and runs
each in process against ``src/walkdyn``: certify and orbit jobs through
``jobs.run_job``, cli jobs through ``walkdyn.cli.main`` with standard
output and standard error captured.  Prints the SHA-256 of the ``repr``
of every result (a cli job's exit code, output and error text; a job that
raises contributes its exception's type and message), one repr a line,
in stream order.  Two checkouts that print the same digest computed the
same bits for those jobs, which is the gate of a change that claims to
keep them.  With ``--per-job`` it prints one line a job instead: its index
in the stream, the SHA-256 of its result line, and ``jobs.describe(job)``,
so two checkouts' listings show which jobs moved.
"""

import argparse
import hashlib
import io
import itertools
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import jobs as J  # noqa: E402
import walkdyn  # noqa: E402
from walkdyn import cli  # noqa: E402


def result_text(job) -> str:
    """The repr of one job's result, or of the exception it raised."""
    if job["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(job["argv"]))
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code
            except Exception as exc:
                code = f"raised {type(exc).__name__}: {exc}"
        return repr((code, out.getvalue(), err.getvalue()))
    try:
        return repr(J.run_job(walkdyn, job))
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(J.CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--per-job", action="store_true", help="one digest a job, with the job")
    args = ap.parse_args()
    if args.jobs < 1:
        ap.error("--jobs must be at least 1")
    digest = hashlib.sha256()
    for i, job in enumerate(itertools.islice(J.stream(args.workload, args.seed), args.jobs)):
        line = result_text(job).encode() + b"\n"
        digest.update(line)
        if args.per_job:
            print(i, hashlib.sha256(line).hexdigest(), J.describe(job))
    if not args.per_job:
        print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
