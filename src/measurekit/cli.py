"""Command-line front end.

Measure expressions are read from a JSON format in which every node is a
single-key object naming its kind, e.g.::

    {"Normal": {"mu": 0, "sigma": 1}}
    {"Superpose": [{"Scale": {"logw": -0.693, "of": {"Dirac": {"a": 0}}}},
                   {"Scale": {"logw": -0.693, "of": {"Normal": {}}}}]}
    {"Chain": {"initial": {"Normal": {"mu": 0}},
               "step": {"family": "Normal",
                        "maps": {"mu": "identity", "sigma": "const:1"}}}}

A ``Superpose`` lists its components flat, two or more of them.  Each kind
is declared once, in ``_NODES``: its node class and the codec of its body,
which both `parse_expr` and `print_expr` read; the catalog families' entries
come from `catalog.FAMILIES`.

Subcommands: ``logdensity``, ``sample``, ``check``.  ``check`` reads the root
of the measure's base chain (`core.root_measure`) at the middle of the range,
evaluating no density: it integrates when a part of the root is Lebesgue, and
sums over the integers when every part is an atom at an integer or counting
measure, pushed forward (if at all) by maps that keep the integers on the
integers.  Exit codes: 0 success, 1 usage/parse/shape errors and expressions
nested too deeply to evaluate, 2 measure-theoretic failures (unrelated
primitive measures, undefined density).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from operator import attrgetter
from typing import Callable, NamedTuple

from . import core, verify
from .catalog import FAMILIES
from .combinators import (
    AffineMap,
    Bind,
    ForProduct,
    Likelihood,
    PointwiseProduct,
    Power,
    Product,
    Pushforward,
    Superposition,
    bind,
    for_product,
    pointwise_product,
    power,
    pushforward,
    scale,
    superpose,
)
from .core import (
    COUNTING,
    LEBESGUE,
    Counting,
    Dirac,
    Lebesgue,
    LogWeight,
    MeasureError,
    MeasureExpr,
    ShapeError,
    UndefinedDensityError,
    UnrelatedPrimitivesError,
    Weighted,
)
from .kernels import Chain, ChainSample, Kernel, chain, make_kernel
from .rng import derive_key


# ---------------------------------------------------------------------------
# Expression documents
# ---------------------------------------------------------------------------


def _body(doc, path):
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ValueError(f"at {path}: expected a single-key object, got {doc!r}")
    return next(iter(doc.items()))


def _number(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"at {path}: expected a number, got {v!r}")
    return v


def _point(v):
    if isinstance(v, list):
        return tuple(_point(x) for x in v)
    return v


def _listify(v):
    if isinstance(v, tuple):
        return [_listify(x) for x in v]
    return v


def _require_keys(body, keys, path):
    if not isinstance(body, dict):
        raise ValueError(f"at {path}: expected an object, got {body!r}")
    if set(body) != keys:
        raise ValueError(f"at {path}: expected keys {sorted(keys)}, got {sorted(body)}")


class _Codec(NamedTuple):
    """Both directions of one document value."""

    parse: Callable  # (document value, path) -> value
    print: Callable  # value -> document value


def _fields(make, *fields) -> _Codec:
    """Codec of an object built as ``make(*values)``.

    Each field is (key, codec, attribute): the values are parsed in field
    order, and printing reads each key's value back from the attribute.
    """
    keys = {key for key, _, _ in fields}
    getters = [(key, codec, attrgetter(attr)) for key, codec, attr in fields]

    def parse(body, path):
        _require_keys(body, keys, path)
        return make(*[codec.parse(body[key], f"{path}.{key}") for key, codec, _ in getters])

    def show(m):
        return {key: codec.print(get(m)) for key, codec, get in getters}

    return _Codec(parse, show)


def _children(make, attr: str) -> _Codec:
    """Codec of a list of two or more expressions, built as ``make(list)``."""

    def parse(body, path):
        if not isinstance(body, list) or len(body) < 2:
            raise ValueError(f"at {path}: expected a list of at least 2 children")
        return make([parse_expr(child, f"{path}[{i}]") for i, child in enumerate(body)])

    return _Codec(parse, lambda m: [print_expr(c) for c in getattr(m, attr)])


def _family(family) -> _Codec:
    """Codec of a catalog family's named parameters: numbers, or points."""

    def parse(body, path):
        if not isinstance(body, dict):
            raise ValueError(f"at {path}: expected a parameter object")
        return family(**{
            name: _point(v) if isinstance(v, list) else _number(v, f"{path}.{name}")
            for name, v in body.items()
        })

    return _Codec(parse, lambda m: {k: _listify(v) for k, v in family.params(m).items()})


def _parse_kernel(doc, path) -> Kernel:
    _require_keys(doc, {"family", "maps"}, path)
    maps = doc["maps"]
    if not isinstance(maps, dict):
        raise ValueError(f"at {path}.maps: expected an object")
    try:
        return make_kernel(doc["family"], **maps)
    except ValueError as exc:
        raise ValueError(f"at {path}: {exc}") from None


def _print_kernel(k):
    if (
        not isinstance(k, Kernel)
        or k.family is None
        or any(not isinstance(spec, str) for _, spec in k.maps)
    ):
        raise ValueError("kernel is not serializable (opaque function)")
    return {"family": k.family, "maps": dict(k.maps)}


def _parse_shape(v, path):
    if not isinstance(v, list):
        raise ValueError(f"at {path}: expected a list of integers")
    return tuple(v)


def parse_expr(doc, path: str = "$") -> MeasureExpr:
    """Build a measure expression from its JSON document form."""
    kind, body = _body(doc, path)
    path = f"{path}.{kind}"
    try:
        _, codec = _NODES[kind]
    except KeyError:
        raise ValueError(f"at {path}: unknown kind {kind!r}") from None
    try:
        return codec.parse(body, path)
    except (ValueError, TypeError) as exc:
        if str(exc).startswith("at "):
            raise
        raise ValueError(f"at {path}: {exc}") from None


def print_expr(m: MeasureExpr):
    """Document form of a measure expression; inverse of `parse_expr`."""
    try:
        kind, codec = _KINDS[type(m)]
    except KeyError:
        raise ValueError(f"expression {m!r} is not serializable") from None
    return {kind: codec.print(m)}


_NUMBER = _Codec(_number, lambda v: v)
_POINT = _Codec(lambda v, path: _point(v), _listify)
_EXPR = _Codec(parse_expr, print_expr)
_KERNEL = _Codec(_parse_kernel, _print_kernel)


def _affine(mode: str, factor: str, offset: str) -> _Codec:
    """Codec of a pushforward whose map is in the given mode."""
    return _fields(
        lambda _, f, o, of: pushforward(AffineMap(mode, f, o), of),
        ("mode", _Codec(lambda v, path: v, str.capitalize), "map.mode"),
        (factor, _POINT, "map.factor"),
        (offset, _POINT, "map.offset"),
        ("of", _EXPR, "inner"),
    )


# A pushforward's keys depend on its map's mode.
_AFFINE = {
    "Forward": _affine("forward", "sigma", "x0"),
    "Inverse": _affine("inverse", "psi", "mu0"),
}


def _parse_pushforward(body, path):
    mode = body.get("mode") if isinstance(body, dict) else None
    if mode not in _AFFINE:
        raise ValueError(f"at {path}.mode: expected 'Forward' or 'Inverse', got {mode!r}")
    return _AFFINE[mode].parse(body, path)


# Document kind -> (node class, codec of its body): the one table that both
# `parse_expr` (by kind) and `print_expr` (by class) read.
_NODES = {
    "Lebesgue": (Lebesgue, _fields(lambda: LEBESGUE)),
    "Counting": (Counting, _fields(lambda: COUNTING)),
    **{name: (family.cls, _family(family)) for name, family in FAMILIES.items()},
    "Scale": (Weighted, _fields(scale, ("logw", _NUMBER, "logweight"), ("of", _EXPR, "base"))),
    "Superpose": (Superposition, _children(lambda c: superpose(*c), "components")),
    "Product": (Product, _children(lambda c: Product(tuple(c)), "children")),
    "Power": (Power, _fields(
        power, ("of", _EXPR, "child"), ("shape", _Codec(_parse_shape, list), "shape"))),
    "For": (ForProduct, _fields(
        for_product, ("indices", _Codec(lambda v, path: tuple(v), list), "indices"),
        ("kernel", _KERNEL, "kernel"))),
    "Bind": (Bind, _fields(bind, ("of", _EXPR, "source"), ("kernel", _KERNEL, "kernel"))),
    "PointwiseProduct": (PointwiseProduct, _fields(
        pointwise_product,
        ("of", _EXPR, "prior"),
        ("likelihood", _fields(Likelihood, ("kernel", _KERNEL, "kernel"), ("x", _POINT, "x")),
         "likelihood"))),
    "Pushforward": (Pushforward, _Codec(
        _parse_pushforward, lambda m: _AFFINE[m.map.mode.capitalize()].print(m))),
    "Chain": (Chain, _fields(
        lambda initial, step: chain(step, initial),
        ("initial", _EXPR, "initial"), ("step", _KERNEL, "step"))),
}
_KINDS = {cls: (kind, codec) for kind, (cls, codec) in _NODES.items()}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def format_log_weight(v: LogWeight) -> str:
    if v.is_undefined:
        return "undefined"
    if v.value == math.inf:
        return "inf"
    if v.value == -math.inf:
        return "-inf"
    return f"{v.value + 0.0:.17g}"  # + 0.0 normalizes -0.0


def _format_sample(s) -> str:
    if isinstance(s, (tuple, list)):
        return json.dumps(_listify(tuple(s)))
    if isinstance(s, float):
        return repr(s)
    return str(s)


def _load_expr(path: str) -> MeasureExpr:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_expr(json.load(fh))


def _cmd_logdensity(args) -> int:
    expr = _load_expr(args.expr)
    x = _point(json.loads(args.at))
    if args.wrt is None or args.wrt == "base":
        value = core.log_density(expr, x)
    else:
        value = core.log_density(expr, x, wrt=_load_expr(args.wrt))
    print(format_log_weight(value))
    return 0


def _cmd_sample(args) -> int:
    if args.n < 0:
        raise ValueError(f"-n must be >= 0, got {args.n}")
    expr = _load_expr(args.expr)
    for i in range(args.n):
        draw = core.sample(expr, derive_key(args.seed, i))
        if isinstance(draw, ChainSample):
            if args.take is None:
                raise ValueError("sampling a chain requires --take")
            draw = tuple(itertools.islice(iter(draw), args.take))
        print(_format_sample(draw))
    return 0


def _region(expr: MeasureExpr, lo: float, hi: float):
    """Interval or integer range, by the parts of the root of expr's base chain.

    A scalar measure's root is the same at every point, so the midpoint
    stands for the range.  A Lebesgue part needs the interval; counting parts
    whose atoms sit on the integers, and atoms at integers, need only the
    integers.
    """
    try:
        root = core.root_measure(expr, (lo + hi) / 2.0)
        parts = root.components if isinstance(root, Superposition) else (root,)
    except ShapeError:  # the midpoint does not fit the measure
        parts = ()
    kinds = set()
    for part in parts:
        if isinstance(part, Dirac):
            kinds.add("counting" if part.atom % 1 == 0 else None)
        else:
            kind = (part.reference_class() or (None,))[0]
            kinds.add(kind if kind != "counting" or _keeps_integers(part) else None)
    if "lebesgue" in kinds:
        return verify.Interval(lo, hi)
    if kinds == {"counting"}:
        if math.ceil(lo) > math.floor(hi):
            raise ValueError(f"--lo {lo!r} and --hi {hi!r} hold no integer")
        return verify.IntegerRange(math.ceil(lo), math.floor(hi))
    raise ValueError("check supports measures with a scalar Lebesgue or Counting reference")


def _keeps_integers(m: MeasureExpr) -> bool:
    """Whether the affine maps of m's pushforwards, composed, send every
    integer to an integer: f(0) and f(1) - f(0) are integers."""
    maps = []
    while isinstance(m, Pushforward):
        maps.append(m.map)
        m = m.inner
    at0, at1 = 0.0, 1.0
    for t in reversed(maps):
        at0, at1 = t.from_source(at0), t.from_source(at1)
    return at0 % 1 == 0 and (at1 - at0) % 1 == 0


def _cmd_check(args) -> int:
    if not (math.isfinite(args.lo) and math.isfinite(args.hi)):
        raise ValueError(f"--lo and --hi must be finite, got {args.lo!r} and {args.hi!r}")
    expr = _load_expr(args.expr)
    region = _region(expr, args.lo, args.hi)
    total = verify.mass(expr, region, args.tol)
    verdict = "PASS" if abs(total - 1.0) <= 10.0 * args.tol else "FAIL"
    print(f"mass {total:.12g} {verdict}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at first use and then shared: each
    `parse_args` fills a new namespace and leaves the parser as it was."""
    parser = _Parser(prog="measurekit", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("logdensity", help="evaluate a log-density at a point")
    p.add_argument("--expr", required=True, help="JSON expression file")
    p.add_argument("--wrt", help="reference expression file, or 'base' (default)")
    p.add_argument("--at", required=True, help="evaluation point as JSON")
    p.set_defaults(fn=_cmd_logdensity)

    p = sub.add_parser("sample", help="draw reproducible samples")
    p.add_argument("--expr", required=True)
    p.add_argument("-n", type=int, default=1, help="number of samples")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--take", type=int, help="prefix length for chain samples")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("check", help="check unit mass over a region")
    p.add_argument("--expr", required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(fn=_cmd_check)
    return parser


def _attach_negative_values(argv):
    """Write ``--opt -1e-05`` as ``--opt=-1e-05``.

    argparse reads a separate argument that starts with '-' as an option
    unless it looks like a plain decimal, so a negative number in exponent
    notation (Python's repr of any float in (-1e-4, 0)) would be refused.
    """
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] = f"{prev}={arg}"
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.fn(args)
    except (UnrelatedPrimitivesError, UndefinedDensityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MeasureError, ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print(f"error: {core._TOO_DEEP}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
