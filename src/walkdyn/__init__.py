"""Linear dynamics of nearest-neighbor walk operators on sequence spaces.

The package builds banded transition operators for simple and
site-dependent walks on the half-line and the line, inverts them
explicitly, computes kernel bases of their powers, probes their point
spectrum through the roots of the eigenvector recurrence, classifies the
underlying walks, and assembles numerical certificates for
supercyclicity, frequent hypercyclicity and chaos of scalar multiples.
"""

__version__ = "0.1.0"

from .classify import (
    Classification,
    ClassVerdict,
    SeriesDecision,
    SeriesOutcome,
    Verdict,
    classify,
    judge_series,
    kernel_decay_log_factors,
)
from .dynamics import (
    CertKind,
    Certificate,
    LineBoundReport,
    ObstructionReport,
    OrbitProbeReport,
    constant_tail_obstruction,
    fhc_chaos_certificate,
    line_walk_lower_bound,
    lower_density_estimate,
    orbit_density_probe,
    supercyclicity_criterion_certificate,
)
from .inverse_kernel import (
    TailNotDecayingError,
    jump_ratio,
    kernel_basis,
    kernel_span_approx,
    kernel_vector,
    kernel_window_for_tol,
    ratio_bound,
    right_inverse,
    right_inverse_power,
    step_norm_bound,
)
from .operators import (
    BandedOp,
    Constant,
    ListWithTail,
    Periodic,
    PSeq,
    make_walk,
    parse_pseq,
    pseq_text,
)
from .seqspace import (
    FinSeq,
    Lattice,
    SpaceKind,
    SpaceSpec,
    norm,
)
from .spectral import (
    DualSpectrumReport,
    IntervalCheckReport,
    SpectrumVerdict,
    certified_disk_radius,
    dual_point_spectrum_report,
    eigen_sequence,
    left_kernel_vector,
    point_spectrum_probe,
    symmetric_dual_interval_check,
)
from .walk_oracle import WalkConfig, estimate_return_mass, estimate_transition

__all__ = [
    "__version__",
    "BandedOp",
    "CertKind",
    "Certificate",
    "ClassVerdict",
    "Classification",
    "Constant",
    "DualSpectrumReport",
    "FinSeq",
    "IntervalCheckReport",
    "Lattice",
    "LineBoundReport",
    "ListWithTail",
    "ObstructionReport",
    "OrbitProbeReport",
    "PSeq",
    "Periodic",
    "SeriesDecision",
    "SeriesOutcome",
    "SpaceKind",
    "SpaceSpec",
    "SpectrumVerdict",
    "TailNotDecayingError",
    "Verdict",
    "WalkConfig",
    "certified_disk_radius",
    "classify",
    "constant_tail_obstruction",
    "dual_point_spectrum_report",
    "eigen_sequence",
    "estimate_return_mass",
    "estimate_transition",
    "fhc_chaos_certificate",
    "judge_series",
    "jump_ratio",
    "kernel_basis",
    "kernel_decay_log_factors",
    "kernel_span_approx",
    "kernel_vector",
    "kernel_window_for_tol",
    "left_kernel_vector",
    "line_walk_lower_bound",
    "lower_density_estimate",
    "make_walk",
    "norm",
    "orbit_density_probe",
    "parse_pseq",
    "point_spectrum_probe",
    "pseq_text",
    "ratio_bound",
    "right_inverse",
    "right_inverse_power",
    "step_norm_bound",
    "supercyclicity_criterion_certificate",
    "symmetric_dual_interval_check",
]
