"""Parameter records and the family registry.

Every family's parameters go through one table-driven record; these tests
pin its JSON form to literal output of the per-family codecs it replaced,
and check permutation, validation on every way in, and parameter counts
against the per-family formulas, for all families and both orientations.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockfit as bf
from blockfit import FamilyError, FamilySpec, InputFormatError, families
from blockfit.cli import build_parser
from blockfit.engine import MixtureParams, lower_bound
from blockfit.families import (
    FAMILIES,
    FAMILY_KINDS,
    BernoulliParams,
    BivariateGaussianParams,
    BlockParams,
    GaussianParams,
    LinearRegressionParams,
    MultinomialParams,
    PoissonParams,
    PoissonRegParams,
    SimpleRegressionParams,
    theta_from_jsonable,
    theta_to_jsonable,
)
from blockfit.io import fit_from_jsonable

from test_scoring import _instance

THIRD = 1 / 3

# (spec, parameters, the JSON the per-family codecs wrote for them)
FIXED = {
    "bernoulli": (
        FamilySpec("bernoulli"),
        lambda: BernoulliParams(pi=np.array([[0.1, THIRD], [THIRD, 0.9]])),
        '{"pi": [[0.1, 0.3333333333333333], [0.3333333333333333, 0.9]]}'),
    "multinomial": (
        FamilySpec("multinomial", num_labels=3),
        lambda: MultinomialParams(probs=np.array([[[0.2, 0.3, 0.5], [THIRD, THIRD, THIRD]],
                                                  [[THIRD, THIRD, THIRD], [0.7, 0.2, 0.1]]])),
        '{"probs": [[[0.2, 0.3, 0.5], [0.3333333333333333, 0.3333333333333333, '
        '0.3333333333333333]], [[0.3333333333333333, 0.3333333333333333, '
        '0.3333333333333333], [0.7, 0.2, 0.1]]]}'),
    "gaussian": (
        FamilySpec("gaussian"),
        lambda: GaussianParams(mu=np.array([[-1.5, 0.1], [0.2, 1e-3]]),
                               sigma2=np.array([[0.5, THIRD], [2.0, 1e5]])),
        '{"mu": [[-1.5, 0.1], [0.2, 0.001]], '
        '"sigma2": [[0.5, 0.3333333333333333], [2.0, 100000.0]]}'),
    "bigauss": (
        FamilySpec("bigauss"),
        lambda: BivariateGaussianParams(
            mu=np.array([[[0.1, -0.2], [1.5, THIRD]], [[THIRD, 1.5], [2.0, 2.0]]]),
            cov=np.array([[[[1.0, 0.1], [0.1, 2.0]], [[0.5, -0.2], [-0.2, 0.7]]],
                          [[[0.7, -0.2], [-0.2, 0.5]], [[THIRD, 0.0], [0.0, THIRD]]]])),
        '{"mu": [[[0.1, -0.2], [1.5, 0.3333333333333333]], [[0.3333333333333333, 1.5], '
        '[2.0, 2.0]]], "cov": [[[[1.0, 0.1], [0.1, 2.0]], [[0.5, -0.2], [-0.2, 0.7]]], '
        '[[[0.7, -0.2], [-0.2, 0.5]], [[0.3333333333333333, 0.0], [0.0, 0.3333333333333333]]]]}'),
    "poisson": (
        FamilySpec("poisson"),
        lambda: PoissonParams(lam=np.array([[0.1, 2.5], [THIRD, 4.0]])),
        '{"lam": [[0.1, 2.5], [0.3333333333333333, 4.0]]}'),
    "poisson-prmh": (
        FamilySpec("poisson-prmh", covariate_dim=2),
        lambda: PoissonRegParams(lam=np.array([[0.1, 2.5], [THIRD, 0.0]]),
                                 beta=np.array([-0.317, THIRD])),
        '{"lam": [[0.1, 2.5], [0.3333333333333333, 0.0]], '
        '"beta": [-0.317, 0.3333333333333333], "shared": true}'),
    "poisson-prmi": (
        FamilySpec("poisson-prmi"),
        lambda: PoissonRegParams(lam=np.array([[6.0, 0.5], [0.5, THIRD]]),
                                 beta=np.array([[[0.1], [-0.2]], [[-0.2], [THIRD]]]), shared=False),
        '{"lam": [[6.0, 0.5], [0.5, 0.3333333333333333]], '
        '"beta": [[[0.1], [-0.2]], [[-0.2], [0.3333333333333333]]], "shared": false}'),
    "linreg": (
        FamilySpec("linreg", covariate_dim=2),
        lambda: LinearRegressionParams(
            beta=np.array([[[0.1, 1.0], [-0.2, 0.0]], [[-0.2, 0.0], [THIRD, 2.5]]]),
            sigma2=np.array([[1.0, 0.25], [0.25, THIRD]])),
        '{"beta": [[[0.1, 1.0], [-0.2, 0.0]], [[-0.2, 0.0], [0.3333333333333333, 2.5]]], '
        '"sigma2": [[1.0, 0.25], [0.25, 0.3333333333333333]]}'),
    "simplereg": (
        FamilySpec("simplereg"),
        lambda: SimpleRegressionParams(intercept=np.array([[1.0, 3.0], [3.0, 5.0 + THIRD]]),
                                       slope=-0.317, sigma2=THIRD),
        '{"intercept": [[1.0, 3.0], [3.0, 5.333333333333333]], '
        '"slope": -0.317, "sigma2": 0.3333333333333333}'),
}


def _same(a: BlockParams, b: BlockParams):
    assert a.kind == b.kind and a.Q == b.Q
    for (ka, va), (kb, vb) in zip(a.arrays().items(), b.arrays().items()):
        assert ka == kb and va.shape == vb.shape and np.array_equal(va, vb)


def _fit_payload(spec, theta_json, alpha):
    """Smallest fit JSON that io.fit_from_jsonable reads."""
    Q = len(alpha)
    return {"family": spec.kind, "num_labels": spec.num_labels,
            "covariate_dim": spec.covariate_dim, "Q": Q, "alpha": list(alpha),
            "theta": theta_json, "tau": np.full((3, Q), 1.0 / Q).tolist(),
            "J_trajectory": [-1.0], "entropy": 0.0, "map_assignment": [0, 0, 0],
            "converged": True, "iterations": 1, "icl": None}


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_json_matches_the_per_family_codecs(kind):
    spec, build, want = FIXED[kind]
    theta = build()
    assert json.dumps(theta_to_jsonable(spec, theta)) == want
    back = theta_from_jsonable(spec, json.loads(want))
    _same(back, theta)
    assert json.dumps(theta_to_jsonable(spec, back)) == want


def _draw(data):
    kind = data.draw(st.sampled_from(FAMILY_KINDS))
    directed = kind != "bigauss" and data.draw(st.booleans())
    n, Q = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    return (kind, directed, rng) + _instance(kind, rng, n, Q, directed)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_round_trip_and_permutation_are_exact(data):
    kind, directed, rng, g, cov, spec, theta = _draw(data)
    payload = theta_to_jsonable(spec, theta)
    back = theta_from_jsonable(spec, json.loads(json.dumps(payload)))
    _same(back, theta)
    assert json.dumps(theta_to_jsonable(spec, back)) == json.dumps(payload)

    Q = theta.Q
    perm = rng.permutation(Q)
    moved = theta.permute(perm)
    _same(moved.permute(np.argsort(perm)), theta)
    alpha = rng.dirichlet(np.ones(Q))
    tau = rng.dirichlet(np.ones(Q), size=g.n)
    want = lower_bound(g, spec, tau, MixtureParams(alpha, theta), cov)
    got = lower_bound(g, spec, tau[:, perm], MixtureParams(alpha[perm], moved), cov)
    assert abs(got - want) <= 1e-12 * abs(want)


_OUTSIDE = {families._finite: np.nan, families._nonnegative: -1.0, families._unit: 1.5,
            families._positive: 0.0}


def _out_of_domain(a, array, rng):
    """A copy of ``a`` with one entry (a whole block for the simplex) moved
    outside the domain of ``array``."""
    bad = a.copy()
    if array.domain is families._simplex:
        bad.reshape(-1, bad.shape[-1])[rng.integers(bad.size // bad.shape[-1])] *= 2.7
    elif array.domain is families._spd2:
        bad.reshape(-1, 2, 2)[rng.integers(bad.size // 4), 0, 0] = -1.0
    else:
        bad.reshape(-1)[rng.integers(bad.size)] = _OUTSIDE[array.domain]
    return bad


def _wrong_shapes(a, array):
    """Shapes no family spec allows: an extra axis, a missing block row."""
    return [a[..., None]] + ([a[:-1]] if array.blockwise else [])


def _wrong_sizes(a, array):
    """One more covariate or label than the family spec has (padded with 0,
    so a probability vector still sums to 1)."""
    first = a.ndim - len(array.shape)
    return [np.concatenate([a, np.zeros_like(a.take([0], axis=first + k))], axis=first + k)
            for k, d in enumerate(array.shape) if isinstance(d, str)]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_invalid_parameters_are_refused_on_every_way_in(data):
    kind, directed, rng, g, cov, spec, theta = _draw(data)
    values = theta.arrays()
    alpha = np.full(theta.Q, 1.0 / theta.Q)
    for array in FAMILIES[kind].params:
        a = values[array.name]
        refused = [_out_of_domain(a, array, rng)] + _wrong_shapes(a, array)
        for bad in refused:
            with pytest.raises(FamilyError):
                BlockParams(kind, **{**values, array.name: bad})
        for bad in refused + _wrong_sizes(a, array):
            payload = theta_to_jsonable(spec, theta) | {array.name: bad.tolist()}
            with pytest.raises(InputFormatError):
                fit_from_jsonable(_fit_payload(spec, payload, alpha))


def _per_family_count(kind, Q, directed, p, m):
    """The parameter counts the per-family ``param_count`` methods returned."""
    blocks = Q * Q if directed else Q * (Q + 1) // 2
    return {
        "bernoulli": blocks, "poisson": blocks, "multinomial": (m - 1) * blocks,
        "gaussian": 2 * blocks, "bigauss": 5 * Q * (Q + 1) // 2,
        "poisson-prmh": blocks + p, "poisson-prmi": blocks * (1 + p),
        "linreg": (p + 1) * blocks, "simplereg": blocks + 2,
    }[kind]


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_param_count_matches_the_per_family_formulas(kind):
    for size in (1, 2, 3):
        p = 1 if kind == "simplereg" else size
        m = size + 1
        spec = FamilySpec(kind, num_labels=m if kind == "multinomial" else None,
                          covariate_dim=p if FAMILIES[kind].covariates else None)
        for directed in ([False] if kind == "bigauss" else [False, True]):
            for Q in range(1, 7):
                assert bf.param_count(spec, Q, directed) == _per_family_count(kind, Q, directed, p, m)


def test_cli_family_choices_are_the_registry():
    commands = build_parser()._subparsers._group_actions[0].choices
    for name in ("fit", "select"):
        family = next(a for a in commands[name]._actions if a.dest == "family")
        assert tuple(family.choices) == FAMILY_KINDS
