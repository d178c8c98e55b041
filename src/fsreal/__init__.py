"""Free-space realizability: decide whether curves exist that generate a
given free space diagram or matrix, with witness curves for every YES."""

from .model import (
    CellContent,
    Curve1D,
    CurveD,
    FreeSpaceDiagram1D,
    FreeSpaceMatrix,
    PointSeq1D,
    Witness,
    rat,
    rat_str,
    consistency_problems,
)
from .forward import (
    EllipseCell,
    RelativePlacement,
    cell_ellipse_2d,
    compute_diagram_1d,
    compute_matrix,
    relative_placement_from_cell,
    verify_witness,
)
from .bruteforce import brute_force_continuous_1d, brute_force_discrete_1d
from .discrete import solve as solve_discrete_1d
from .folding import CreaseAssignment, check_foldable, extract_curves, infer_creases, solve_fpt
from .pseudopoly import fixed_boundary_dp, solve_pseudo_poly, subdivide_and_type
from .generators import (
    OrientedLine,
    PartitionInstance,
    SignVectorSet,
    arrangement_to_witness,
    gen_partition,
    gen_random_instance,
    gen_stretchability,
    has_balanced_partition,
)

__all__ = [
    "CellContent",
    "Curve1D",
    "CurveD",
    "FreeSpaceDiagram1D",
    "FreeSpaceMatrix",
    "PointSeq1D",
    "Witness",
    "rat",
    "rat_str",
    "consistency_problems",
    "EllipseCell",
    "RelativePlacement",
    "cell_ellipse_2d",
    "compute_diagram_1d",
    "compute_matrix",
    "relative_placement_from_cell",
    "verify_witness",
    "brute_force_continuous_1d",
    "brute_force_discrete_1d",
    "solve_discrete_1d",
    "CreaseAssignment",
    "check_foldable",
    "extract_curves",
    "infer_creases",
    "solve_fpt",
    "fixed_boundary_dp",
    "solve_pseudo_poly",
    "subdivide_and_type",
    "OrientedLine",
    "PartitionInstance",
    "SignVectorSet",
    "arrangement_to_witness",
    "gen_partition",
    "gen_random_instance",
    "gen_stretchability",
    "has_balanced_partition",
]

__version__ = "0.1.0"
