"""Causal rate distortion on finite alphabets.

Exact probability and information machinery for causal (nonanticipative)
reconstruction kernels, a Lagrangian fixed-point solver for the causal
rate-distortion curve, an independent brute-force oracle, and a Monte-Carlo
causal-coding simulator.
"""
from .probability import (
    CausalKernelChain,
    FinitePmf,
    GeneralKernel,
    JointMeasure,
    OutputProcess,
    ShapeError,
    SourceModel,
    make_joint,
    product_measure,
    validate_causal,
)
from .information import (
    InfoReport,
    check_causality_equivalence,
    mutual_information,
)
from .distortion import (
    DistortionModel,
    average_distortion,
    d_max_product,
)
from .solver import (
    RDCurve,
    RateDistortionPoint,
    SolverOptions,
    bisect_s_for_distortion,
    classical_ba,
    d_max_min_sequence,
    default_s_grid,
    gateaux_derivative,
    properties_report,
    solve_fixed_s,
    sweep,
)
from .oracle import OracleResult, brute_force_lagrangian, compare
from .coding import (
    Codebook,
    SimReport,
    TypicalitySpec,
    generate_codebook,
    simulate,
    typicality_probability,
)

__version__ = "0.1.0"
