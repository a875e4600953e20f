"""Outside-in span tracer for the walkdyn benchmark (standard library only).

The tracer wraps public callables of the walkdyn modules at every module
attribute that holds them (so ``from .seqspace import norm`` in another
module is wrapped too) and the hot methods of ``FinSeq`` and ``BandedOp``
on their classes.  Each call records one span (name, start, end, parent,
job id) in flat arrays; self time is a span's duration minus the time its
child spans cover.  Per-entry helpers such as ``FinSeq.at`` are never
wrapped, so their cost lands in the caller's self time.

Use it as a context manager: the originals are restored on exit, and the
timed (untraced) passes never run inside it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = (
    "seqspace",
    "operators",
    "inverse_kernel",
    "classify",
    "spectral",
    "dynamics",
    "walk_oracle",
    "cli",
)

# Called once per sequence entry inside library loops; wrapping them would
# time the tracer, not the library.
PER_ENTRY = frozenset({"inverse_kernel.jump_ratio", "classify.kernel_weight"})

# (module, class, method) -> span name.  FinSeq arithmetic shares one name.
METHODS = {
    ("seqspace", "FinSeq", "__add__"): "seqspace.arith",
    ("seqspace", "FinSeq", "__sub__"): "seqspace.arith",
    ("seqspace", "FinSeq", "__neg__"): "seqspace.arith",
    ("seqspace", "FinSeq", "__mul__"): "seqspace.arith",
    ("seqspace", "FinSeq", "__rmul__"): "seqspace.arith",
    ("operators", "BandedOp", "apply"): "operators.apply",
    ("operators", "BandedOp", "apply_transpose"): "operators.apply_transpose",
    ("operators", "BandedOp", "power_apply"): "operators.power_apply",
    ("operators", "BandedOp", "power_entry"): "operators.power_entry",
    ("operators", "BandedOp", "power_row"): "operators.power_row",
}


def _entries(counts, name, sig, args, kwargs, result):
    counts[name + ".entries"] += len(result.values)


def _kernel_basis(counts, name, sig, args, kwargs, result):
    bound = _bind(sig, args, kwargs)
    n, window = bound["n"], bound["window"]
    counts[name + ".window_rows"] += window
    counts[name + ".kept"] += sum(len(b.values) for b in result)
    counts[name + ".computed"] += n * (window + n)


def _window(counts, name, sig, args, kwargs, result):
    if result >= _bind(sig, args, kwargs)["cap"]:
        counts[name + ".cap_hits"] += 1


def _verdict(counts, name, sig, args, kwargs, result):
    counts["dynamics.verdict." + result.verdict.value] += 1


def _oracle(counts, name, sig, args, kwargs, result):
    bound = _bind(sig, args, kwargs)
    counts["walk_oracle.steps"] += bound["cfg"].samples * bound["n"]


# span name -> counter hook(counts, name, signature, args, kwargs, result)
COUNTERS = {
    "operators.apply": _entries,
    "operators.apply_transpose": _entries,
    "seqspace.arith": _entries,
    "inverse_kernel.right_inverse": _entries,
    "inverse_kernel.kernel_basis": _kernel_basis,
    "inverse_kernel.kernel_window_for_tol": _window,
    "dynamics.fhc_chaos_certificate": _verdict,
    "dynamics.supercyclicity_criterion_certificate": _verdict,
    "walk_oracle.estimate_transition": _oracle,
}

def _bind(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Span recorder; ``with Tracer(package) as t:`` installs the wrappers."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span."""
        nid = self._id(name)
        hook = COUNTERS.get(name)
        sig = inspect.signature(fn) if hook is not None else None
        stack = self._stack
        start, end, parent = self.start, self.end, self.parent
        name_id, job_of, counts = self.name_id, self.job_of, self.counts
        tail_error = getattr(self.package, "TailNotDecayingError", ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            job_of.append(self.job)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except tail_error:
                counts[name + ".tail_errors"] += 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, name, sig, args, kwargs, result)
            return result

        return traced

    def job_span(self, job_id: int, fn, *args):
        """Run one benchmark job as a root span."""
        self.job = job_id
        return self.span("job", fn)(*args)

    # -- installing ------------------------------------------------------
    def _modules(self):
        prefix = self.package.__name__
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]

    def __enter__(self):
        targets = {}
        for short in MODULES:
            mod = sys.modules[f"{self.package.__name__}.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                    and name not in PER_ENTRY
                ):
                    targets[id(obj)] = (obj, self.span(name, obj))
        # rebind every module attribute that holds a wrapped function
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for (short, cls_name, meth), name in METHODS.items():
            cls = getattr(sys.modules[f"{self.package.__name__}.{short}"], cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self.span(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    # -- reporting -------------------------------------------------------
    def self_times(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, total self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return {k: (calls[k], self_s[k]) for k in calls}

    def job_seconds(self) -> float:
        jid = self._ids.get("job")
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name_id[i] == jid
        )

    def write(self, path) -> None:
        """Write the spans as gzip-compressed CSV: name,start,end,parent,job."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,job\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]},{self.job_of[i]}\n"
                )
