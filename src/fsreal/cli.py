"""Command line surface.

Exit codes are the machine contract: 0 realizable / success, 1 not
realizable, 2 invalid input, 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import formats
from .model import Curve1D, CurveD, FreeSpaceMatrix, Witness, checked_epsilon

EXIT_YES = 0
EXIT_NO = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3


class InputError(Exception):
    pass


def _load(module: str, name: str):
    """``name`` of the submodule ``module``, which is imported on first use:
    each command compiles only the modules it runs. (``__import__``, unlike
    ``importlib.import_module``, shows in ``python -X importtime``.) Once
    imported, the module is read from ``sys.modules``; ``name`` is looked up
    on every call, so a solver replaced on its module is the one called."""
    path = f"{__package__}.{module}"
    return getattr(sys.modules.get(path) or __import__(path, fromlist=[name]), name)


# Not called: bench/tracing.py patches these names on this module. ROADMAP
# item 1 deletes them with its table.
def structural_problems(d):
    return _load("diagram", "structural_problems")(d)


def solve_discrete(instance):
    return _load("discrete", "solve")(instance)


def solve_fpt(instance):
    return _load("folding", "solve_fpt")(instance)


def solve_pseudo_poly(instance):
    return _load("pseudopoly", "solve_pseudo_poly")(instance)


def _read_instance(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return formats.parse(text)
    except formats.FormatError as exc:
        raise InputError(f"{path}: {exc}") from None


def _write_output(text: str, path):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _eps_arg(text: str, exact: bool):
    """``--eps`` under the rule for a curves file's epsilon: a positive
    rational for 1D curves, a positive finite number (decimal or "num/den")
    for curves in R^d."""
    value = text
    if not exact:
        try:
            value = float(text)
        except ValueError:
            pass  # "num/den" is read as a rational
    try:
        return checked_epsilon(value, exact)
    except ValueError as exc:
        raise InputError(f"--eps: {exc}") from None


def _cmd_forward(args) -> int:
    from .forward import compute_diagram_1d, compute_matrix

    witness = _read_instance(args.curves)
    if not isinstance(witness, Witness):
        raise InputError("forward needs a curves file")
    if args.as_kind == "diagram" and not isinstance(witness.curve_p, Curve1D):
        raise InputError("--as diagram needs 1D polyline curves")
    eps = witness.epsilon if args.eps is None else _eps_arg(args.eps, exact=not isinstance(witness.curve_p, CurveD))
    forward = compute_diagram_1d if args.as_kind == "diagram" else compute_matrix
    try:
        instance = forward(witness.curve_p, witness.curve_q, eps)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    _write_output(formats.serialize(instance), args.out)
    return EXIT_YES


# mode -> (instance kind, solver module, solver); the solver is read off its
# module when the mode runs
_SOLVERS = {
    "discrete1d": ("matrix", "discrete", "solve"),
    "cont1d-fpt": ("diagram", "folding", "solve_fpt"),
    "cont1d-dp": ("diagram", "pseudopoly", "solve_pseudo_poly"),
    "brute-discrete": ("matrix", "bruteforce", "brute_force_discrete_1d"),
    "brute-cont": ("diagram", "bruteforce", "brute_force_continuous_1d"),
}


def _cmd_solve(args) -> int:
    instance = _read_instance(args.infile)
    want, module, name = _SOLVERS[args.mode]
    if want == "matrix" and not isinstance(instance, FreeSpaceMatrix):
        raise InputError(f"mode {args.mode} needs a matrix instance")
    if want == "diagram" and not isinstance(instance, _load("diagram", "FreeSpaceDiagram1D")):
        raise InputError(f"mode {args.mode} needs a diagram1d instance")
    solve = _load(module, name)
    try:
        witness = solve(instance)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if witness is None:
        print("NO")
        return EXIT_NO
    # a witness file is written before the verdict, so a failed write prints
    # no YES; on standard output the witness follows the verdict line
    to_stdout = args.witness == "-"
    if args.witness and not to_stdout:
        _write_output(formats.serialize(witness), args.witness)
    print("YES")
    if to_stdout:
        sys.stdout.write(formats.serialize(witness))
    return EXIT_YES


def _cmd_gen(args) -> int:
    from .generators import PartitionInstance, SignVectorSet, gen_partition, gen_random_instance, gen_stretchability

    chosen = [k for k in ("partition", "stretchability", "random") if getattr(args, k) is not None]
    if len(chosen) != 1:
        raise InputError("choose exactly one of --partition / --stretchability / --random")
    if args.partition is not None:
        try:
            items = [int(v) for v in args.partition.split(",") if v.strip()]
            instance = gen_partition(PartitionInstance(items))
        except ValueError as exc:
            raise InputError(str(exc)) from None
    elif args.stretchability is not None:
        signs = _read_instance(args.stretchability)
        if not isinstance(signs, SignVectorSet):
            raise InputError("stretchability input must be a signvectors file")
        instance = gen_stretchability(signs)
    else:
        try:
            instance = gen_random_instance(args.random, kind=args.kind, mutate=args.mutate)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    _write_output(formats.serialize(instance), args.out)
    return EXIT_YES


def _cmd_verify(args) -> int:
    from .forward import verify_witness

    instance = _read_instance(args.instance)
    witness = _read_instance(args.witness)
    if not isinstance(witness, Witness):
        raise InputError("witness file must contain curves")
    if not isinstance(instance, FreeSpaceMatrix) and not isinstance(instance, _load("diagram", "FreeSpaceDiagram1D")):
        raise InputError("instance must be a matrix or diagram1d file")
    try:
        ok = verify_witness(witness, instance)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    print("VERIFIED" if ok else "MISMATCH")
    return EXIT_YES if ok else EXIT_NO


def _cmd_render(args) -> int:
    from .diagram import FreeSpaceDiagram1D
    from .render import render_ascii, render_svg

    instance = _read_instance(args.infile)
    if not isinstance(instance, (FreeSpaceMatrix, FreeSpaceDiagram1D, Witness)):
        raise InputError("render needs a matrix, diagram1d or curves file")
    if args.ascii:
        _write_output(render_ascii(instance), args.out)
    else:
        if args.out is None:
            raise InputError("render needs --out FILE.svg or --ascii")
        _write_output(render_svg(instance), args.out)
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fsreal", description="Free-space realizability toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    fwd = sub.add_parser("forward", help="compute a matrix/diagram from curves")
    fwd.add_argument("--curves", required=True)
    fwd.add_argument("--eps", default=None)
    fwd.add_argument("--as", dest="as_kind", choices=("matrix", "diagram"), default="matrix")
    fwd.add_argument("--out", default=None)
    fwd.set_defaults(func=_cmd_forward)

    slv = sub.add_parser("solve", help="decide realizability")
    slv.add_argument("--mode", required=True, choices=sorted(_SOLVERS))
    slv.add_argument("--in", dest="infile", required=True)
    slv.add_argument("--witness", default=None)
    slv.set_defaults(func=_cmd_solve)

    gen = sub.add_parser("gen", help="generate instances")
    gen.add_argument("--partition", default=None, metavar="A1,A2,...")
    gen.add_argument("--stretchability", default=None, metavar="SIGNS.json")
    gen.add_argument("--random", default=None, type=int, metavar="SEED")
    gen.add_argument("--kind", choices=("matrix", "diagram"), default="matrix")
    gen.add_argument("--mutate", action="store_true")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    ver = sub.add_parser("verify", help="check a witness against an instance")
    ver.add_argument("--instance", required=True)
    ver.add_argument("--witness", required=True)
    ver.set_defaults(func=_cmd_verify)

    ren = sub.add_parser("render", help="draw an instance or witness")
    ren.add_argument("--in", dest="infile", required=True)
    ren.add_argument("--out", default=None)
    ren.add_argument("--ascii", action="store_true")
    ren.set_defaults(func=_cmd_render)
    return parser


# one parser per process: building it costs more than a small solve, and
# parse_args keeps no state between calls
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # invariant failures and bugs
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
