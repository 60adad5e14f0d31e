import math

import pytest

from sobolev_lab.geometry import (
    MAX_DIM,
    ModelKind,
    make_product,
    make_sphere,
    unit_sphere_volume,
)

# oracle values computed independently: Vol(S^1) = 2 pi, Vol(S^2) = 4 pi,
# Vol(S^3) = 2 pi^2, Vol(S^4) = 8 pi^2 / 3, Vol(S^5) = pi^3
VOLUME_ORACLE = {
    1: 2.0 * math.pi,
    2: 4.0 * math.pi,
    3: 2.0 * math.pi**2,
    4: 8.0 * math.pi**2 / 3.0,
    5: math.pi**3,
}


def test_unit_sphere_volume_oracle():
    for d, vol in VOLUME_ORACLE.items():
        assert unit_sphere_volume(d) == pytest.approx(vol, rel=1e-15)


def test_unit_sphere_volume_recursion():
    # Vol(S^d) = (2 pi / (d - 1)) Vol(S^{d-2})
    for d in range(3, 17):
        assert unit_sphere_volume(d) == pytest.approx(
            2.0 * math.pi / (d - 1) * unit_sphere_volume(d - 2), rel=1e-14
        )


def test_unit_sphere_volume_rejects_nonpositive():
    with pytest.raises(ValueError):
        unit_sphere_volume(0)


def test_make_sphere_fields():
    m = make_sphere(3)
    assert m.kind is ModelKind.SPHERE_RADIAL
    assert m.dim == 3
    assert m.length == math.pi
    assert m.total_volume == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert m.scalar_curvature == 6.0


def test_make_product_fields():
    m = make_product(4)
    assert m.kind is ModelKind.PRODUCT_CIRCLE
    assert m.length == pytest.approx(2.0 * math.pi / math.sqrt(2.0), rel=1e-15)
    assert m.total_volume == pytest.approx(m.length * 2.0 * math.pi**2, rel=1e-15)
    # cross-section S^3 with unit radius
    assert m.scalar_curvature == 6.0


@pytest.mark.parametrize("bad", [0, 1, 2, MAX_DIM + 1, 40])
def test_dimension_limits(bad):
    with pytest.raises(ValueError):
        make_sphere(bad)
    with pytest.raises(ValueError):
        make_product(bad)
