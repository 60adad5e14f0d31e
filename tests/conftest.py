import numpy as np
import pytest

from sobolev_lab import constants as cst
from sobolev_lab.discretization import DiscreteFunction, build
from sobolev_lab.functionals import QuotientSpec
from sobolev_lab.geometry import make_product, make_sphere
from sobolev_lab.optimize import minimize


@pytest.fixture(scope="session")
def sphere3():
    return make_sphere(3)


@pytest.fixture(scope="session")
def product4():
    return make_product(4)


@pytest.fixture(scope="session")
def sphere3_disc(sphere3):
    return build(sphere3, 64)


@pytest.fixture(scope="session")
def product4_disc(product4):
    return build(product4, 64)


@pytest.fixture(scope="session")
def subcritical_spec(sphere3_disc):
    """Sphere spec (A_opt, beta-compatible B) at q = 4 < 2* = 6; degenerate."""
    return cst.default_spec(sphere3_disc, 4.0)


@pytest.fixture(scope="session")
def fine_degenerate_point():
    """(spec, critical point) of the degenerate sphere spec at n = 512, from constants."""
    spec = cst.default_spec(build(make_sphere(3), 512), 4.0)
    return spec, minimize(spec, DiscreteFunction(spec.disc, np.ones(512)))


@pytest.fixture(scope="session")
def critical_sphere_spec(sphere3_disc):
    """Sphere spec at the critical exponent with the Euclidean constant."""
    return QuotientSpec(
        A=cst.euclidean_sobolev_constant(3) ** 2,
        B=cst.beta_constant(sphere3_disc.model),
        q=6.0,
        disc=sphere3_disc,
    )


@pytest.fixture(scope="session")
def critical_product_spec(product4_disc):
    return cst.default_spec(product4_disc, 4.0)


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.Philox(12345))
