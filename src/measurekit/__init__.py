"""First-class measures for probabilistic modeling.

Measures are immutable expression values: primitives (Lebesgue, counting,
Dirac), parameterized families, and combinators (products, powers, bind,
superposition, pointwise products, affine pushforwards, Markov chains).
Every measure knows its base measure locally, and log-densities between
arbitrary pairs are computed by recursion through both base-measure chains.
"""

from .core import (
    COUNTING,
    LEBESGUE,
    Counting,
    DepthError,
    Dirac,
    Lebesgue,
    LogWeight,
    MeasureError,
    MeasureExpr,
    NEG_INF,
    NotProbabilityError,
    POS_INF,
    ShapeError,
    UNDEFINED,
    UndefinedDensityError,
    UnrelatedPrimitivesError,
    Weighted,
    ZERO,
    base_measure,
    is_primitive,
    log_density,
    logaddexp,
    reset_weight_evaluations,
    root_measure,
    sample,
    weight_evaluations,
)
from .catalog import (
    Bernoulli,
    Exponential,
    FAMILIES,
    NegativeBinomial,
    Normal,
    Poisson,
    Uniform01,
    make_negbinomial,
    make_normal,
    make_simple,
)
from .combinators import (
    AffineMap,
    Bind,
    DensityClosure,
    ForProduct,
    IntegralMeasure,
    Likelihood,
    PointwiseProduct,
    Power,
    Product,
    Pushforward,
    Superposition,
    bind,
    for_product,
    forward_map,
    integrate,
    integrate_exp,
    inverse_map,
    loglik,
    pointwise_product,
    power,
    product,
    pushforward,
    rn_derivative,
    scale,
    superpose,
)
from .kernels import (
    Chain,
    ChainSample,
    Kernel,
    apply_kernel,
    as_kernel,
    chain,
    chain_logdensity,
    make_kernel,
    sample_chain,
)
from . import rng, verify

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
