"""Free-space realizability: decide whether curves exist that generate a
given free space diagram or matrix, with witness curves for every YES.

``import fsreal`` loads no submodule: each public name below is imported
from its submodule on first use (PEP 562), so a caller that needs one
solver compiles only that solver and what it imports. ``fsreal solve``
likewise imports only its mode's modules.
"""

# submodule -> the public names it supplies, in the order of ``__all__``
_EXPORTS = {
    "model": (
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
    ),
    "forward": (
        "EllipseCell",
        "RelativePlacement",
        "cell_ellipse_2d",
        "compute_diagram_1d",
        "compute_matrix",
        "relative_placement_from_cell",
        "verify_witness",
    ),
    "bruteforce": ("brute_force_continuous_1d", "brute_force_discrete_1d"),
    "discrete": ("solve_discrete_1d",),
    "folding": ("CreaseAssignment", "check_foldable", "extract_curves", "infer_creases", "solve_fpt"),
    "pseudopoly": ("fixed_boundary_dp", "solve_pseudo_poly", "subdivide_and_type"),
    "generators": (
        "OrientedLine",
        "PartitionInstance",
        "SignVectorSet",
        "arrangement_to_witness",
        "gen_partition",
        "gen_random_instance",
        "gen_stretchability",
        "has_balanced_partition",
    ),
}
# public names bound to a submodule attribute of another name
_RENAMED = {"solve_discrete_1d": "solve"}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    attr = _RENAMED.get(name, name)
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[attr]), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
