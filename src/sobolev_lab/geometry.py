"""Model closed manifolds reduced to one-dimensional weighted domains.

Two models are supported:

* the round sphere S^d restricted to radial functions of the polar
  angle t in [0, pi], with volume density Vol(S^{d-1}) sin^{d-1}(t);
* the product S^1(1/sqrt(d-2)) x S^{d-1} restricted to functions of the
  circle variable, a periodic domain of length 2*pi/sqrt(d-2) with
  constant density Vol(S^{d-1}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

# Weights sin^{d-1} become numerically stiff past this point and nothing
# in the experiments needs larger dimensions.
MAX_DIM = 16


class ModelKind(str, Enum):
    SPHERE_RADIAL = "sphere_radial"
    PRODUCT_CIRCLE = "product_circle"


def unit_sphere_volume(d: int) -> float:
    """Surface measure of the unit d-sphere, 2 pi^{(d+1)/2} / Gamma((d+1)/2)."""
    if d < 1:
        raise ValueError(f"unit_sphere_volume requires d >= 1, got {d}")
    return 2.0 * math.pi ** ((d + 1) / 2) / math.gamma((d + 1) / 2)


@dataclass(frozen=True)
class ManifoldModel:
    kind: ModelKind
    dim: int
    length: float
    total_volume: float
    scalar_curvature: float


def _check_dim(d: int) -> None:
    if d < 3:
        raise ValueError(f"dimension must satisfy d >= 3, got {d}")
    if d > MAX_DIM:
        raise ValueError(f"dimension must satisfy d <= {MAX_DIM}, got {d}")


def make_sphere(d: int) -> ManifoldModel:
    """Round sphere S^d reduced to radial functions, pole at t = 0."""
    _check_dim(d)
    return ManifoldModel(
        kind=ModelKind.SPHERE_RADIAL,
        dim=d,
        length=math.pi,
        total_volume=unit_sphere_volume(d),
        scalar_curvature=float(d * (d - 1)),
    )


def make_product(d: int) -> ManifoldModel:
    """S^1(1/sqrt(d-2)) x S^{d-1} reduced to functions of the circle variable."""
    _check_dim(d)
    length = 2.0 * math.pi / math.sqrt(d - 2)
    return ManifoldModel(
        kind=ModelKind.PRODUCT_CIRCLE,
        dim=d,
        length=length,
        total_volume=length * unit_sphere_volume(d - 1),
        scalar_curvature=float((d - 2) * (d - 1)),
    )
