"""Command-line front end.

Measure expressions are read from a JSON format in which every node is a
single-key object naming its kind, e.g.::

    {"Normal": {"mu": 0, "sigma": 1}}
    {"Superpose": [{"Scale": {"logw": -0.693, "of": {"Dirac": {"a": 0}}}},
                   {"Scale": {"logw": -0.693, "of": {"Normal": {}}}}]}
    {"Chain": {"initial": {"Normal": {"mu": 0}},
               "step": {"family": "Normal",
                        "maps": {"mu": "identity", "sigma": "const:1"}}}}

Subcommands: ``logdensity``, ``sample``, ``check``.  Exit codes: 0 success,
1 usage/parse/shape errors and expressions nested too deeply to evaluate,
2 measure-theoretic failures (unrelated primitive measures, undefined
density).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from . import core, verify
from .catalog import (
    Bernoulli,
    Exponential,
    NegativeBinomial,
    Normal,
    Poisson,
    Uniform01,
    make_negbinomial,
    make_normal,
)
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


def _require_keys(body, required, optional, path):
    keys = set(body)
    if not required <= keys or keys - required - optional:
        raise ValueError(
            f"at {path}: expected keys {sorted(required | optional)}, got {sorted(keys)}"
        )


def _parse_kernel(doc, path) -> Kernel:
    _require_keys(doc, {"family", "maps"}, set(), path)
    maps = doc["maps"]
    if not isinstance(maps, dict):
        raise ValueError(f"at {path}.maps: expected an object")
    try:
        return make_kernel(doc["family"], **maps)
    except ValueError as exc:
        raise ValueError(f"at {path}: {exc}") from None


def parse_expr(doc, path: str = "$") -> MeasureExpr:
    """Build a measure expression from its JSON document form."""
    kind, body = _body(doc, path)
    path = f"{path}.{kind}"
    try:
        parser = _PARSERS[kind]
    except KeyError:
        raise ValueError(f"at {path}: unknown kind {kind!r}") from None
    try:
        return parser(body, path)
    except KeyError as exc:
        raise ValueError(f"at {path}: missing key {exc}") from None
    except (ValueError, TypeError) as exc:
        if str(exc).startswith("at "):
            raise
        raise ValueError(f"at {path}: {exc}") from None


def _parse_params(body, path):
    if not isinstance(body, dict):
        raise ValueError(f"at {path}: expected a parameter object")
    return {name: _number(value, f"{path}.{name}") for name, value in body.items()}


def _parse_children(body, path, minimum=2):
    if not isinstance(body, list) or len(body) < minimum:
        raise ValueError(f"at {path}: expected a list of at least {minimum} children")
    return [parse_expr(child, f"{path}[{i}]") for i, child in enumerate(body)]


def _parse_superpose(body, path):
    children = _parse_children(body, path)
    result = children[-1]
    for child in reversed(children[:-1]):
        result = superpose(child, result)
    return result


def _parse_empty(builder):
    def parse(body, path):
        if not isinstance(body, dict) or body:
            raise ValueError(f"at {path}: expected an empty object")
        return builder()

    return parse


def _parse_dirac(body, path):
    _require_keys(body, {"a"}, set(), path)
    return Dirac(_point(body["a"]))


def _parse_scale(body, path):
    _require_keys(body, {"logw", "of"}, set(), path)
    return scale(_number(body["logw"], f"{path}.logw"), parse_expr(body["of"], f"{path}.of"))


def _parse_power(body, path):
    _require_keys(body, {"of", "shape"}, set(), path)
    shape = body["shape"]
    if not isinstance(shape, list):
        raise ValueError(f"at {path}.shape: expected a list of integers")
    return power(parse_expr(body["of"], f"{path}.of"), tuple(shape))


def _parse_for(body, path):
    _require_keys(body, {"indices", "kernel"}, set(), path)
    return for_product(
        tuple(body["indices"]), _parse_kernel(body["kernel"], f"{path}.kernel")
    )


def _parse_bind(body, path):
    _require_keys(body, {"of", "kernel"}, set(), path)
    return bind(
        parse_expr(body["of"], f"{path}.of"),
        _parse_kernel(body["kernel"], f"{path}.kernel"),
    )


def _parse_pointwise(body, path):
    _require_keys(body, {"of", "likelihood"}, set(), path)
    lik = body["likelihood"]
    _require_keys(lik, {"kernel", "x"}, set(), f"{path}.likelihood")
    return pointwise_product(
        parse_expr(body["of"], f"{path}.of"),
        Likelihood(
            _parse_kernel(lik["kernel"], f"{path}.likelihood.kernel"),
            _point(lik["x"]),
        ),
    )


def _parse_pushforward(body, path):
    mode = body.get("mode")
    if mode == "Forward":
        _require_keys(body, {"mode", "sigma", "x0", "of"}, set(), path)
        t = AffineMap("forward", _point(body["sigma"]), _point(body["x0"]))
    elif mode == "Inverse":
        _require_keys(body, {"mode", "psi", "mu0", "of"}, set(), path)
        t = AffineMap("inverse", _point(body["psi"]), _point(body["mu0"]))
    else:
        raise ValueError(f"at {path}.mode: expected 'Forward' or 'Inverse', got {mode!r}")
    return pushforward(t, parse_expr(body["of"], f"{path}.of"))


def _parse_chain(body, path):
    _require_keys(body, {"initial", "step"}, set(), path)
    return chain(
        _parse_kernel(body["step"], f"{path}.step"),
        parse_expr(body["initial"], f"{path}.initial"),
    )


_PARSERS = {
    "Lebesgue": _parse_empty(lambda: LEBESGUE),
    "Counting": _parse_empty(lambda: COUNTING),
    "Dirac": _parse_dirac,
    "Normal": lambda body, path: make_normal(**_parse_params(body, path)),
    "NegativeBinomial": lambda body, path: make_negbinomial(**_parse_params(body, path)),
    "Uniform01": _parse_empty(Uniform01),
    "Bernoulli": lambda body, path: Bernoulli(**_parse_params(body, path)),
    "Poisson": lambda body, path: Poisson(**_parse_params(body, path)),
    "Exponential": lambda body, path: Exponential(**_parse_params(body, path)),
    "Scale": _parse_scale,
    "Superpose": _parse_superpose,
    "Product": lambda body, path: Product(tuple(_parse_children(body, path))),
    "Power": _parse_power,
    "For": _parse_for,
    "Bind": _parse_bind,
    "PointwiseProduct": _parse_pointwise,
    "Pushforward": _parse_pushforward,
    "Chain": _parse_chain,
}


def _listify(v):
    if isinstance(v, tuple):
        return [_listify(x) for x in v]
    return v


def _print_kernel(k):
    if (
        not isinstance(k, Kernel)
        or k.family is None
        or any(not isinstance(spec, str) for _, spec in k.maps)
    ):
        raise ValueError("kernel is not serializable (opaque function)")
    return {"family": k.family, "maps": dict(k.maps)}


def print_expr(m: MeasureExpr):
    """Document form of a measure expression; inverse of `parse_expr`."""
    if isinstance(m, Lebesgue):
        return {"Lebesgue": {}}
    if isinstance(m, Counting):
        return {"Counting": {}}
    if isinstance(m, Dirac):
        return {"Dirac": {"a": _listify(m.atom)}}
    if isinstance(m, Normal):
        return {"Normal": {"mu": m.mu, "sigma": m.sigma}}
    if isinstance(m, NegativeBinomial):
        return {"NegativeBinomial": dict(m.params)}
    if isinstance(m, Uniform01):
        return {"Uniform01": {}}
    if isinstance(m, Bernoulli):
        return {"Bernoulli": {"p": m.p}}
    if isinstance(m, Poisson):
        return {"Poisson": {"rate": m.rate}}
    if isinstance(m, Exponential):
        return {"Exponential": {"rate": m.rate}}
    if isinstance(m, Weighted):
        return {"Scale": {"logw": m.logweight, "of": print_expr(m.base)}}
    if isinstance(m, Superposition):
        return {"Superpose": [print_expr(m.left), print_expr(m.right)]}
    if isinstance(m, Product):
        return {"Product": [print_expr(c) for c in m.children]}
    if isinstance(m, Power):
        return {"Power": {"of": print_expr(m.child), "shape": list(m.shape)}}
    if isinstance(m, ForProduct):
        return {
            "For": {"indices": list(m.indices), "kernel": _print_kernel(m.kernel)}
        }
    if isinstance(m, Bind):
        return {"Bind": {"of": print_expr(m.source), "kernel": _print_kernel(m.kernel)}}
    if isinstance(m, PointwiseProduct):
        return {
            "PointwiseProduct": {
                "of": print_expr(m.prior),
                "likelihood": {
                    "kernel": _print_kernel(m.likelihood.kernel),
                    "x": _listify(m.likelihood.x),
                },
            }
        }
    if isinstance(m, Pushforward):
        if m.map.mode == "forward":
            return {
                "Pushforward": {
                    "mode": "Forward",
                    "sigma": _listify(m.map.factor),
                    "x0": _listify(m.map.offset),
                    "of": print_expr(m.inner),
                }
            }
        return {
            "Pushforward": {
                "mode": "Inverse",
                "psi": _listify(m.map.factor),
                "mu0": _listify(m.map.offset),
                "of": print_expr(m.inner),
            }
        }
    if isinstance(m, Chain):
        return {
            "Chain": {"initial": print_expr(m.initial), "step": _print_kernel(m.step)}
        }
    raise ValueError(f"expression {m!r} is not serializable")


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
    expr = _load_expr(args.expr)
    for i in range(args.n):
        draw = core.sample(expr, derive_key(args.seed, i))
        if isinstance(draw, ChainSample):
            if args.take is None:
                raise ValueError("sampling a chain requires --take")
            draw = tuple(itertools.islice(iter(draw), args.take))
        print(_format_sample(draw))
    return 0


def _detect_region(expr: MeasureExpr, lo: float, hi: float):
    probe = (lo + hi) / 2.0
    try:
        core.log_density(expr, probe, wrt=LEBESGUE)
        return verify.Interval(lo, hi)
    except MeasureError:
        pass
    try:
        core.log_density(expr, int(math.floor(probe)), wrt=COUNTING)
        return verify.IntegerRange(int(math.ceil(lo)), int(math.floor(hi)))
    except MeasureError:
        raise ValueError(
            "check supports measures with a scalar Lebesgue or Counting reference"
        ) from None


def _cmd_check(args) -> int:
    expr = _load_expr(args.expr)
    region = _detect_region(expr, args.lo, args.hi)
    total = verify.mass(expr, region, args.tol)
    verdict = "PASS" if abs(total - 1.0) <= 10.0 * args.tol else "FAIL"
    print(f"mass {total:.12g} {verdict}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
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
        print("error: expression nested too deeply to evaluate", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
