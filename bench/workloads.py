"""The benchmark's workloads.

Each workload is a function ``(run, seed, docs_dir) -> (play_round, finish)``.
Calling it is the set-up: it builds the measures and writes the JSON
documents.  ``play_round(r)`` issues one round of operations through
``run.op`` and checks every output; all rounds have the same operations in
the same order, and only the values (points, sampler seeds) change with
``(seed, r)``.  ``finish()`` makes the checks that need the whole run, such
as sample means against their known means.

Sizes are fixed here and never depend on the seed, so the cost of a round is
the same for every seed.  The references are computed with ``math`` from
the parameters chosen here, never read from saved output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random

import measurekit as mk
from measurekit import cli, rng, verify

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Closed-form references
# ---------------------------------------------------------------------------


def normal_logpdf(x, mu, sigma):
    z = (x - mu) / sigma
    return -0.5 * z * z - math.log(sigma) - HALF_LOG_2PI


def poisson_logpmf(k, rate):
    return k * math.log(rate) - rate - math.lgamma(k + 1.0)


def negbin_logpmf(y, r, p):
    return (math.lgamma(y + r) - math.lgamma(r) - math.lgamma(y + 1.0)
            + r * math.log(p) + y * math.log1p(-p))


def logsumexp(values):
    top = max(values)
    if top == -math.inf:
        return top
    return top + math.log(sum(math.exp(v - top) for v in values))


class Moments:
    """Running sum of draws, checked against a known mean at the end."""

    def __init__(self, name, mean, sd):
        self.name, self.mean, self.sd = name, mean, sd
        self.n = 0
        self.total = 0.0

    def add(self, values):
        for v in values:
            self.total += v
            self.n += 1

    def check(self, run):
        # Six standard errors: a correct sampler fails this about once in
        # 10^9 runs, while a biased one fails on every seed.
        bound = 6.0 * self.sd / math.sqrt(self.n)
        run.check(abs(self.total / self.n - self.mean) <= bound,
                  f"{self.name}: mean of {self.n} draws is {self.total / self.n}, "
                  f"expected {self.mean} +- {bound}")


def round_rng(workload, seed, r):
    # String seeds are hashed with SHA-512, so streams repeat across processes.
    return random.Random(f"{workload}:{seed}:{r}")


def draw_seed(rs):
    return rs.getrandbits(63)


# ---------------------------------------------------------------------------
# Documents and the in-process CLI
# ---------------------------------------------------------------------------


def write_doc(run, docs, name, m):
    """Write m's document and check that it parses back to m."""
    doc = cli.print_expr(m)
    run.check(cli.parse_expr(doc) == m, f"parse_expr(print_expr(m)) != m for {name}")
    path = os.path.join(docs, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def cli_op(run, argv):
    """In-process ``measurekit`` call with stdout captured; returns its lines."""

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"measurekit {' '.join(argv[:1])} exited {code}")
        return out.getvalue()

    return run.op("cli", call).splitlines()


def same_as_cli(run, lines, value, what):
    run.check(lines == [cli.format_log_weight(value)],
              f"CLI {what} printed {lines!r}, in-process value {value!r}")


def normal_mixture(rs, k):
    """Right-folded k-component Normal mixture and its (logw, mu, sigma) list.

    A draw from a right-folded mixture costs more the deeper its component
    lies.  The weights follow one fixed profile, heaviest first, so the
    cheapest path is as common on every seed and a best time does not
    depend on the seed; the seed picks the means and scales.
    """
    weights = [1.0 / (j + 1) for j in range(k)]
    total = sum(weights)
    parts = [(math.log(w / total), rs.uniform(-5.0, 5.0), rs.uniform(0.5, 2.0)) for w in weights]
    comps = [mk.scale(lw, mk.Normal(mu, sigma)) for lw, mu, sigma in parts]
    mixture = comps[-1]
    for comp in reversed(comps[:-1]):
        mixture = mk.superpose(comp, mixture)
    return mixture, parts


def mixture_logpdf(parts, x):
    return logsumexp([lw + normal_logpdf(x, mu, sigma) for lw, mu, sigma in parts])


def mixture_moments(name, parts):
    mean = sum(math.exp(lw) * mu for lw, mu, _ in parts)
    second = sum(math.exp(lw) * (sigma * sigma + mu * mu) for lw, mu, sigma in parts)
    return Moments(name, mean, math.sqrt(second - mean * mean))


# ---------------------------------------------------------------------------
# iid-chain: large structured points whose bases do not depend on the point
# ---------------------------------------------------------------------------

POWER_SIZES = (1000, 2000, 5000, 10000)
CHAIN_STEPS = 1000
FOR_INDICES = 1000
POSTERIOR_DATA = 25
POSTERIOR_GRID = 4
# Three posteriors of the same size per round: mass_p50_ms is then the
# median of three positions of equal cost, and each mass op is short.
POSTERIORS = 3


def iid_chain(run, seed, docs):
    g = random.Random(f"iid-chain:{seed}")
    mu, sigma = g.uniform(-1.0, 1.0), g.uniform(0.5, 2.0)
    powers = {n: mk.power(mk.Normal(mu, sigma), (n,)) for n in POWER_SIZES}
    lebesgue = {n: mk.power(mk.LEBESGUE, (n,)) for n in POWER_SIZES}
    own_base = {n: mk.base_measure(powers[n], (mu,) * n) for n in POWER_SIZES}

    s0, step = g.uniform(0.5, 2.0), g.uniform(0.2, 1.0)
    walk = mk.chain(mk.make_kernel("Normal", mu="identity", sigma=f"const:{step!r}"),
                    mk.Normal(0.0, s0))

    slope, offset, for_sigma = g.uniform(-0.01, 0.01), g.uniform(-1.0, 1.0), g.uniform(0.5, 2.0)
    forprod = mk.for_product(range(FOR_INDICES), mk.make_kernel(
        "Normal", mu=f"affine:{slope!r}:{offset!r}", sigma=f"const:{for_sigma!r}"))

    tau, theta, data_sigma = g.uniform(1.0, 3.0), g.uniform(-1.0, 1.0), g.uniform(1.0, 3.0)
    prior = mk.Normal(0.0, tau)
    data_model = mk.power(mk.Normal(theta, data_sigma), (POSTERIOR_DATA,))

    def likelihood_model(p):
        return mk.power(mk.Normal(p, data_sigma), (POSTERIOR_DATA,))

    chain_doc = write_doc(run, docs, "walk", walk)
    power_doc = write_doc(run, docs, "power", powers[1000])
    lebesgue_doc = write_doc(run, docs, "lebesgue1000", lebesgue[1000])
    write_doc(run, docs, "forprod", forprod)

    def play_round(r):
        rs = round_rng("iid-chain", seed, r)
        weight_terms = set()
        for n in POWER_SIZES:
            s = draw_seed(rs)
            x = run.op("sample", lambda: mk.sample(powers[n], s), coords=n)
            run.check(len(x) == n and all(isinstance(v, float) for v in x), "Power draw shape")
            before = mk.weight_evaluations()
            v = run.op("logdensity", lambda: mk.log_density(powers[n], x, wrt=lebesgue[n]), coords=n)
            weight_terms.add(mk.weight_evaluations() - before)
            run.close(v, math.fsum(normal_logpdf(xi, mu, sigma) for xi in x),
                      f"Power({n}) vs Lebesgue^n")
            vb = run.op("logdensity", lambda: mk.log_density(powers[n], x, wrt=own_base[n]), coords=n)
            run.close(vb, math.fsum(-0.5 * ((xi - mu) / sigma) ** 2 for xi in x),
                      f"Power({n}) vs its own base")
            if n == POWER_SIZES[0]:
                power_x, power_v, power_vb = x, v, vb
            if n == POWER_SIZES[-1]:
                back = run.op("logdensity", lambda: mk.log_density(lebesgue[n], x, wrt=powers[n]),
                              coords=n)
                run.check(back.value == -v.value, "d(Lebesgue^n/Power) != -d(Power/Lebesgue^n)")
                # Not bitwise -vb: this walk ends at Lebesgue^n, the forward
                # one at the base, and the sums round differently.
                back = run.op("logdensity", lambda: mk.log_density(own_base[n], x, wrt=powers[n]),
                              coords=n)
                run.close(back, -vb.value, "own base vs Power(n)")
        run.check(len(weight_terms) == 1, f"weight evaluations grow with n: {sorted(weight_terms)}")

        for _ in range(2):
            s = draw_seed(rs)
            xs = run.op("sample", lambda: tuple(itertools.islice(iter(mk.sample_chain(walk, s)),
                                                                 CHAIN_STEPS)),
                        coords=CHAIN_STEPS, chain=CHAIN_STEPS)
            chain_v = run.op("logdensity", lambda: mk.log_density(walk, xs, wrt=lebesgue[CHAIN_STEPS]),
                             coords=CHAIN_STEPS, chain=CHAIN_STEPS)
            want = normal_logpdf(xs[0], 0.0, s0) + math.fsum(
                normal_logpdf(b, a, step) for a, b in zip(xs, xs[1:]))
            run.close(chain_v, want, "chain prefix vs Lebesgue^n")
            v = run.op("logdensity", lambda: mk.chain_logdensity(walk, xs),
                       coords=CHAIN_STEPS, chain=CHAIN_STEPS)
            want = -0.5 * (xs[0] / s0) ** 2 + math.fsum(
                -0.5 * ((b - a) / step) ** 2 for a, b in zip(xs, xs[1:]))
            run.close(v, want, "chain prefix data terms")

        s = draw_seed(rs)
        y = run.op("sample", lambda: mk.sample(forprod, s), coords=FOR_INDICES)
        v = run.op("logdensity", lambda: mk.log_density(forprod, y, wrt=lebesgue[FOR_INDICES]),
                   coords=FOR_INDICES)
        run.close(v, math.fsum(normal_logpdf(yi, slope * i + offset, for_sigma)
                               for i, yi in enumerate(y)), "ForProduct vs Lebesgue^n")

        for _ in range(POSTERIORS):
            s = draw_seed(rs)
            data = run.op("sample", lambda: mk.sample(data_model, s), coords=POSTERIOR_DATA)
            posterior = mk.pointwise_product(prior, mk.Likelihood(likelihood_model, data))
            # loglik carries only data terms, so the posterior's mass is the
            # integral of exp(-A t^2/2 + B t - C/2) / (tau sqrt(2 pi)) over t.
            a = POSTERIOR_DATA / data_sigma ** 2 + 1.0 / tau ** 2
            b = math.fsum(data) / data_sigma ** 2
            c = math.fsum(d * d for d in data) / data_sigma ** 2
            centre, spread = b / a, 1.0 / math.sqrt(a)
            for i in range(POSTERIOR_GRID):
                t = centre + (i - (POSTERIOR_GRID - 1) / 2.0) * spread
                v = run.op("logdensity", lambda: mk.log_density(posterior, t, wrt=mk.LEBESGUE),
                           coords=POSTERIOR_DATA + 1)
                run.close(v, normal_logpdf(t, 0.0, tau) + math.fsum(
                    -0.5 * ((d - t) / data_sigma) ** 2 for d in data), "posterior on the grid")
            log_mass = -math.log(tau) - 0.5 * math.log(a) + b * b / (2.0 * a) - c / 2.0
            region = verify.Interval(centre - 12.0 * spread, centre + 12.0 * spread)
            mass = run.op("mass", lambda: verify.mass(posterior, region,
                                                      tol=math.exp(log_mass) * 1e-10))
            run.close(mass, math.exp(log_mass), "posterior mass vs its Gaussian integral",
                      rel=1e-7, abs_tol=0.0)

        lines = cli_op(run, ["logdensity", "--expr", chain_doc, "--wrt", lebesgue_doc,
                             "--at", json.dumps(xs)])
        same_as_cli(run, lines, chain_v, "chain logdensity")
        lines = cli_op(run, ["logdensity", "--expr", power_doc, "--wrt", lebesgue_doc,
                             "--at", json.dumps(power_x)])
        same_as_cli(run, lines, power_v, "Power logdensity")
        lines = cli_op(run, ["logdensity", "--expr", power_doc, "--at", json.dumps(power_x)])
        same_as_cli(run, lines, power_vb, "Power logdensity against its base")

    return play_round, lambda: None


# ---------------------------------------------------------------------------
# mixture-scalar: many scalar evaluations of small trees
# ---------------------------------------------------------------------------

MIXTURE_SIZES = (4, 16, 64)
SCALAR_REPEATS = 2
# Integer ranges for mass sums: one length for every seed, so the cost of a
# sum does not depend on the seed; the tails beyond it are below 1e-11 for
# every count parameter the seeds can pick.
COUNT_RANGE = 199


def mixture_scalar(run, seed, docs):
    g = random.Random(f"mixture-scalar:{seed}")
    atom_w, slab_mu, slab_sigma = g.uniform(0.2, 0.8), g.uniform(-1.0, 1.0), g.uniform(0.5, 2.0)
    spike_normal = mk.superpose(mk.scale(math.log(atom_w), mk.Dirac(0.0)),
                                mk.scale(math.log1p(-atom_w), mk.Normal(slab_mu, slab_sigma)))
    count_w, count_atom, count_rate = g.uniform(0.2, 0.8), g.randrange(0, 3), g.uniform(2.0, 6.0)
    spike_poisson = mk.superpose(mk.scale(math.log(count_w), mk.Dirac(count_atom)),
                                 mk.scale(math.log1p(-count_w), mk.Poisson(count_rate)))
    mixtures = {k: normal_mixture(g, k) for k in MIXTURE_SIZES}

    inner_mu, inner_sigma = g.uniform(-1.0, 1.0), g.uniform(0.5, 2.0)
    fwd_scale, fwd_shift = g.uniform(0.5, 3.0), g.uniform(-2.0, 2.0)
    pf_forward = mk.pushforward(mk.forward_map(fwd_scale, fwd_shift), mk.Normal(inner_mu, inner_sigma))
    inv_scale, inv_shift = g.uniform(0.5, 3.0), g.uniform(-2.0, 2.0)
    pf_inverse = mk.pushforward(mk.inverse_map(inv_scale, inv_shift), mk.Normal(inner_mu, inner_sigma))
    tri = ((g.uniform(0.5, 2.0), 0.0), (g.uniform(-1.0, 1.0), g.uniform(0.5, 2.0)))
    tri_shift = (g.uniform(-1.0, 1.0), g.uniform(-1.0, 1.0))
    pf_matrix = mk.pushforward(mk.forward_map(tri, tri_shift), mk.power(mk.Normal(), (2,)))
    lebesgue2 = mk.power(mk.LEBESGUE, (2,))

    nb_r, nb_p = g.uniform(3.0, 5.0), g.uniform(0.4, 0.6)
    nb_rp = mk.make_negbinomial(r=nb_r, p=nb_p)
    nb_ab = mk.make_negbinomial(alpha=nb_r, beta=nb_p / (1.0 - nb_p))
    poisson_rate, bern_p = g.uniform(1.0, 10.0), g.uniform(0.1, 0.9)
    poisson, bernoulli = mk.Poisson(poisson_rate), mk.Bernoulli(bern_p)

    spike_doc = write_doc(run, docs, "spike_normal", spike_normal)
    mixture_doc = write_doc(run, docs, "mixture4", mixtures[4][0])
    lebesgue_doc = write_doc(run, docs, "lebesgue", mk.LEBESGUE)
    counting_doc = write_doc(run, docs, "counting", mk.COUNTING)
    draws = {k: mixture_moments(f"mixture{k} draws", mixtures[k][1]) for k in MIXTURE_SIZES}

    lo = min(mu - 12.0 * sigma for _, mu, sigma in mixtures[4][1])
    hi = max(mu + 12.0 * sigma for _, mu, sigma in mixtures[4][1])
    # The spike-and-slab sum runs twice as long as the others, so its cost
    # stays well apart from the pushforward's and the median mass time is
    # one operation's, not a tie between two.
    masses = (
        (mixtures[4][0], verify.Interval(lo, hi)),
        (pf_forward, verify.Interval(fwd_shift + fwd_scale * (inner_mu - 12.0 * inner_sigma),
                                     fwd_shift + fwd_scale * (inner_mu + 12.0 * inner_sigma))),
        (nb_rp, verify.IntegerRange(0, COUNT_RANGE)),
        (spike_poisson, verify.IntegerRange(0, 2 * COUNT_RANGE)),
        (poisson, verify.IntegerRange(0, COUNT_RANGE)),
    )

    def density(m, x, ref, want, what):
        v = run.op("logdensity", lambda: mk.log_density(m, x, wrt=ref), coords=1)
        if isinstance(want, str):
            run.check(v.is_undefined if want == "undefined" else v.value == -math.inf, f"{what}: {v!r}")
        else:
            run.close(v, want, what, rel=1e-12, abs_tol=1e-12)
        return v

    def play_round(r):
        rs = round_rng("mixture-scalar", seed, r)
        for _ in range(SCALAR_REPEATS):
            slab_x = rs.gauss(slab_mu, slab_sigma)
            at_atom = density(spike_normal, 0.0, mk.COUNTING, math.log(atom_w), "spike at atom vs counting")
            density(spike_normal, 0.0, mk.LEBESGUE, "undefined", "spike at atom vs Lebesgue")
            density(spike_normal, slab_x, mk.COUNTING, "-inf", "slab point vs counting")
            off_atom = density(spike_normal, slab_x, mk.LEBESGUE,
                               math.log1p(-atom_w) + normal_logpdf(slab_x, slab_mu, slab_sigma),
                               "slab point vs Lebesgue")

            k = rs.randrange(3, 12)
            density(spike_poisson, count_atom, mk.COUNTING,
                    logsumexp([math.log(count_w),
                               math.log1p(-count_w) + poisson_logpmf(count_atom, count_rate)]),
                    "count spike at atom")
            density(spike_poisson, k, mk.COUNTING,
                    math.log1p(-count_w) + poisson_logpmf(k, count_rate), "count spike off atom")
            density(spike_poisson, count_atom, mk.LEBESGUE, "undefined", "count spike vs Lebesgue")

            y = rs.gauss(fwd_shift, 2.0 * fwd_scale)
            v = density(pf_forward, y, mk.LEBESGUE, normal_logpdf(
                (y - fwd_shift) / fwd_scale, inner_mu, inner_sigma) - math.log(fwd_scale),
                "forward pushforward")
            back = run.op("logdensity", lambda: mk.log_density(mk.LEBESGUE, y, wrt=pf_forward), coords=1)
            run.check(back.value == -v.value, "d(Lebesgue/pushforward) != -d(pushforward/Lebesgue)")
            density(pf_inverse, y, mk.LEBESGUE, normal_logpdf(
                inv_scale * (y - inv_shift), inner_mu, inner_sigma) + math.log(inv_scale),
                "inverse pushforward")
            pt = (rs.gauss(0.0, 2.0), rs.gauss(0.0, 2.0))
            z0 = (pt[0] - tri_shift[0]) / tri[0][0]
            z1 = (pt[1] - tri_shift[1] - tri[1][0] * z0) / tri[1][1]
            v = run.op("logdensity", lambda: mk.log_density(pf_matrix, pt, wrt=lebesgue2), coords=2)
            run.close(v, normal_logpdf(z0, 0.0, 1.0) + normal_logpdf(z1, 0.0, 1.0)
                      - math.log(tri[0][0]) - math.log(tri[1][1]), "2x2 pushforward", rel=1e-12)

            n = rs.randrange(0, 30)
            want = negbin_logpmf(n, nb_r, nb_p)
            v = density(nb_rp, n, mk.COUNTING, want, "NegativeBinomial(r, p)")
            w = density(nb_ab, n, mk.COUNTING, want, "NegativeBinomial(alpha, beta)")
            run.close(w, v.value, "NegativeBinomial parameterizations agree", rel=1e-12)
            back = run.op("logdensity", lambda: mk.log_density(mk.COUNTING, n, wrt=nb_rp), coords=1)
            run.check(back.value == -v.value, "d(Counting/NB) != -d(NB/Counting)")
            density(poisson, n, mk.COUNTING, poisson_logpmf(n, poisson_rate), "Poisson")
            b = rs.randrange(2)
            density(bernoulli, b, mk.COUNTING, math.log(bern_p if b else 1.0 - bern_p), "Bernoulli")

        mixture_values = {}
        for k in MIXTURE_SIZES:
            mixture, parts = mixtures[k]
            for _ in range(2 if k < 64 else 1):
                x = rs.uniform(-6.0, 6.0)
                mixture_values[k] = density(mixture, x, mk.LEBESGUE, mixture_logpdf(parts, x),
                                            f"{k}-component mixture"), x
            s = draw_seed(rs)
            d = run.op("sample", lambda: mk.sample(mixture, s), coords=1)
            draws[k].add([d])
        s = draw_seed(rs)
        first = run.op("sample", lambda: mk.sample(spike_normal, s), coords=1)
        again = run.op("sample", lambda: mk.sample(spike_normal, s), coords=1)
        run.check(first == again, "same seed gave different spike-and-slab draws")
        # The Poisson spike is drawn three times: its draws sit at the median
        # of a round's draws, and three positions of the same cost keep that
        # median from jumping between draws of other costs.
        for m in (spike_poisson, spike_poisson, spike_poisson,
                  pf_forward, pf_matrix, nb_rp, nb_ab, poisson, bernoulli):
            s = draw_seed(rs)
            run.op("sample", lambda: mk.sample(m, s), coords=2 if m is pf_matrix else 1)

        for m, region in masses:
            total = run.op("mass", lambda: verify.mass(m, region))
            run.close(total, 1.0, f"mass of {type(m).__name__}", rel=0.0, abs_tol=1e-6)

        value4, x4 = mixture_values[4]
        # Scalar points go as --at=<x>: argparse takes a separate "-1e-05"
        # for an option, not a value.
        lines = cli_op(run, ["logdensity", "--expr", mixture_doc, "--wrt", lebesgue_doc,
                             f"--at={x4!r}"])
        same_as_cli(run, lines, value4, "mixture logdensity")
        lines = cli_op(run, ["logdensity", "--expr", spike_doc, "--wrt", counting_doc, "--at=0.0"])
        same_as_cli(run, lines, at_atom, "spike-and-slab at the atom")
        lines = cli_op(run, ["logdensity", "--expr", spike_doc, "--wrt", lebesgue_doc,
                             f"--at={slab_x!r}"])
        same_as_cli(run, lines, off_atom, "spike-and-slab off the atom")

    def finish():
        for moments in draws.values():
            moments.check(run)

    return play_round, finish


# ---------------------------------------------------------------------------
# sample-cli: the same node types through their sampling and document paths
# ---------------------------------------------------------------------------

SAMPLE_CHAIN_STEPS = 1000
SAMPLE_POWER = 1000
SCALAR_DRAWS = 6
CLI_DRAWS = 20
CLI_TAKE = 200


def sample_cli(run, seed, docs):
    g = random.Random(f"sample-cli:{seed}")
    s0, step = g.uniform(0.5, 2.0), g.uniform(0.2, 1.0)
    walk = mk.chain(mk.make_kernel("Normal", mu="identity", sigma=f"const:{step!r}"),
                    mk.Normal(0.0, s0))
    mu, sigma = g.uniform(-1.0, 1.0), g.uniform(0.5, 2.0)
    normal = mk.Normal(mu, sigma)
    power = mk.power(normal, (SAMPLE_POWER,))
    # Sampler loops grow with the mean; narrow ranges keep a draw's cost
    # nearly the same on every seed.
    nb_r, nb_p = g.uniform(3.0, 5.0), g.uniform(0.4, 0.6)
    nb_rp = mk.make_negbinomial(r=nb_r, p=nb_p)
    nb_ab = mk.make_negbinomial(alpha=nb_r, beta=nb_p / (1.0 - nb_p))
    big_rate = g.uniform(480.0, 520.0)
    big_poisson = mk.Poisson(big_rate)
    exp_rate = g.uniform(0.5, 2.0)
    exponential = mk.Exponential(exp_rate)
    slope, offset = g.uniform(0.5, 2.0), g.uniform(0.5, 2.0)
    pair = mk.bind(exponential, mk.make_kernel("Poisson", rate=f"affine:{slope!r}:{offset!r}"))
    pair_ref = mk.product(mk.LEBESGUE, mk.COUNTING)
    mixture, parts = normal_mixture(g, 4)

    nb_mean = nb_r * (1.0 - nb_p) / nb_p
    moments = {
        "normal": Moments("Power(Normal) coordinates", mu, sigma),
        "nb_rp": Moments("NegativeBinomial(r, p) draws", nb_mean, math.sqrt(nb_mean / nb_p)),
        "nb_ab": Moments("NegativeBinomial(alpha, beta) draws", nb_mean, math.sqrt(nb_mean / nb_p)),
        "poisson": Moments("Poisson draws", big_rate, math.sqrt(big_rate)),
        "exponential": Moments("Exponential draws", 1.0 / exp_rate, 1.0 / exp_rate),
        "bind": Moments("Bind first coordinates", 1.0 / exp_rate, 1.0 / exp_rate),
        "mixture": mixture_moments("mixture draws", parts),
    }
    scalars = (("nb_rp", nb_rp), ("nb_ab", nb_ab), ("poisson", big_poisson),
               ("exponential", exponential), ("mixture", mixture))

    walk_doc = write_doc(run, docs, "walk", walk)
    normal_doc = write_doc(run, docs, "normal", normal)
    nb_doc = write_doc(run, docs, "nb", nb_ab)
    pair_doc = write_doc(run, docs, "bind", pair)
    counting_doc = write_doc(run, docs, "counting", mk.COUNTING)

    def prefix(spec, s, n):
        return tuple(itertools.islice(iter(mk.sample_chain(spec, s)), n))

    def play_round(r):
        rs = round_rng("sample-cli", seed, r)
        s = draw_seed(rs)
        xs = run.op("sample", lambda: prefix(walk, s, SAMPLE_CHAIN_STEPS),
                    coords=SAMPLE_CHAIN_STEPS, chain=SAMPLE_CHAIN_STEPS)
        again = run.op("sample", lambda: prefix(walk, s, SAMPLE_CHAIN_STEPS),
                       coords=SAMPLE_CHAIN_STEPS, chain=SAMPLE_CHAIN_STEPS)
        run.check(xs == again and len(xs) == SAMPLE_CHAIN_STEPS, "same seed gave a different chain")
        for _ in range(2):
            s = draw_seed(rs)
            x = run.op("sample", lambda: mk.sample(power, s), coords=SAMPLE_POWER)
            run.check(len(x) == SAMPLE_POWER, "Power draw shape")
            moments["normal"].add(x)

        drawn = {}
        for name, m in scalars:
            drawn[name] = []
            for _ in range(SCALAR_DRAWS):
                s = draw_seed(rs)
                drawn[name].append(run.op("sample", lambda: mk.sample(m, s), coords=1))
            moments[name].add(drawn[name])
        for _ in range(SCALAR_DRAWS):
            s = draw_seed(rs)
            p = run.op("sample", lambda: mk.sample(pair, s), coords=2)
            moments["bind"].add([p[0]])
        s = draw_seed(rs)
        run.check(run.op("sample", lambda: mk.sample(nb_rp, s), coords=1)
                  == run.op("sample", lambda: mk.sample(nb_rp, s), coords=1),
                  "same seed gave different NegativeBinomial draws")

        # The first density after the draws runs on cold caches, and its time
        # swings by half between runs; one untimed density warms them first.
        mk.log_density(pair, p, wrt=pair_ref)
        v = run.op("logdensity", lambda: mk.log_density(pair, p, wrt=pair_ref), coords=2)
        rate = slope * p[0] + offset
        run.close(v, math.log(exp_rate) - exp_rate * p[0] + poisson_logpmf(p[1], rate),
                  "Bind pair of a draw", rel=1e-12)
        y = drawn["nb_rp"][-1]
        v = run.op("logdensity", lambda: mk.log_density(nb_rp, y, wrt=mk.COUNTING), coords=1)
        run.close(v, negbin_logpmf(y, nb_r, nb_p), "NegativeBinomial(r, p) of a draw", rel=1e-12)
        w = run.op("logdensity", lambda: mk.log_density(nb_ab, y, wrt=mk.COUNTING), coords=1)
        run.close(w, v.value, "NegativeBinomial parameterizations agree", rel=1e-12)
        for k in drawn["poisson"][:2]:
            v = run.op("logdensity", lambda: mk.log_density(big_poisson, k, wrt=mk.COUNTING), coords=1)
            run.close(v, poisson_logpmf(k, big_rate), "Poisson of a draw", rel=1e-12)
        e = drawn["exponential"][-1]
        v = run.op("logdensity", lambda: mk.log_density(exponential, e, wrt=mk.LEBESGUE), coords=1)
        run.close(v, math.log(exp_rate) - exp_rate * e, "Exponential of a draw", rel=1e-12)

        x = drawn["mixture"][-1]
        v = run.op("logdensity", lambda: mk.log_density(mixture, x, wrt=mk.LEBESGUE), coords=1)
        run.close(v, mixture_logpdf(parts, x), "mixture of a draw", rel=1e-12)

        for m, region, what in (
                (exponential, verify.Interval(0.0, 40.0 / exp_rate), "Exponential"),
                (nb_rp, verify.IntegerRange(0, COUNT_RANGE), "NegativeBinomial")):
            total = run.op("mass", lambda: verify.mass(m, region))
            run.close(total, 1.0, f"mass of {what}", rel=0.0, abs_tol=1e-6)

        s = draw_seed(rs) % 1_000_000
        lines = cli_op(run, ["sample", "--expr", walk_doc, "-n", "2", "--seed", str(s),
                             "--take", str(CLI_TAKE)])
        for i, line in enumerate(lines):
            own = run.op("sample", lambda: prefix(walk, rng.derive_key(s, i), CLI_TAKE),
                         coords=CLI_TAKE, chain=CLI_TAKE)
            run.check(json.loads(line) == list(own), "CLI chain sample differs from sample_chain")
        run.check(len(lines) == 2, "CLI chain sample line count")
        for doc, m in ((normal_doc, normal), (nb_doc, nb_ab), (pair_doc, pair)):
            s = draw_seed(rs) % 1_000_000
            lines = cli_op(run, ["sample", "--expr", doc, "-n", str(CLI_DRAWS), "--seed", str(s)])
            own = run.op("sample", lambda: mk.sample(m, rng.derive_key(s, 0)), coords=1)
            first = json.loads(lines[0])
            run.check(len(lines) == CLI_DRAWS and (first == list(own) if isinstance(own, tuple)
                                                   else first == own),
                      f"CLI sample of {type(m).__name__} differs from sample")
        y = drawn["nb_ab"][-1]
        lines = cli_op(run, ["logdensity", "--expr", nb_doc, "--wrt", counting_doc, "--at", str(y)])
        v = run.op("logdensity", lambda: mk.log_density(nb_ab, y, wrt=mk.COUNTING), coords=1)
        same_as_cli(run, lines, v, "NegativeBinomial logdensity")
        lines = cli_op(run, ["check", "--expr", normal_doc, "--lo", repr(mu - 12.0 * sigma),
                             "--hi", repr(mu + 12.0 * sigma)])
        total = run.op("mass", lambda: verify.mass(
            normal, verify.Interval(mu - 12.0 * sigma, mu + 12.0 * sigma), 1e-8))
        run.check(lines == [f"mass {total:.12g} PASS"], f"CLI check of Normal printed {lines!r}")

    def finish():
        for m in moments.values():
            m.check(run)

    return play_round, finish


WORKLOADS = {"iid-chain": iid_chain, "mixture-scalar": mixture_scalar, "sample-cli": sample_cli}
