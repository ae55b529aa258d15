import math

import numpy as np
import pytest

from opnet.errors import ResourceError
from opnet.sphere import DirectionNet, build_sigma_net, verify_covering


def test_one_dimensional_net_is_exact():
    net = build_sigma_net(1, 0.3)
    assert sorted(net.points[:, 0]) == [-1.0, 1.0]
    assert verify_covering(net, 1000, rng_seed=0) == 0.0


def test_two_dimensional_angular_count():
    net = build_sigma_net(2, 1.0)
    # ceil(pi / arcsin(0.5)) = 6 equally spaced angles
    assert net.size == 6
    worst_chord = 2 * math.sin(math.pi / 12)
    gap = verify_covering(net, 100_000, rng_seed=1)
    assert gap <= worst_chord + 1e-9


def test_sigma_equal_diameter():
    # a single point is itself a 2-net: everything is within the diameter
    single = DirectionNet(np.array([[0.0, 0.0, 1.0]]))
    assert verify_covering(single, 1000, rng_seed=2) <= 2.0
    built = build_sigma_net(3, 2.0, seed=0)
    assert verify_covering(built, 1000, rng_seed=2) <= 2.0


@pytest.mark.parametrize("n,sigma", [(1, 0.5), (2, 0.7), (2, 0.25), (3, 0.6), (4, 2.0)])
def test_built_nets_cover(n, sigma):
    net = build_sigma_net(n, sigma, seed=3)
    assert np.allclose(np.linalg.norm(net.points, axis=1), 1.0, atol=1e-12)
    assert verify_covering(net, 100_000, rng_seed=4) <= sigma


def test_net_size_non_increasing_in_sigma():
    for n in (2, 3):
        sizes = [build_sigma_net(n, s, seed=5).size for s in (0.4, 0.6, 0.9, 1.5)]
        assert sizes == sorted(sizes, reverse=True)


def test_invalid_sigma():
    with pytest.raises(ValueError):
        build_sigma_net(2, 0.0)
    with pytest.raises(ValueError):
        build_sigma_net(3, -0.5)


def test_unverifiable_coverage_raises_with_hint():
    with pytest.raises(ResourceError,
                       match="over the cap of 500000; increase sigma"):
        build_sigma_net(4, 0.3)


def test_verify_covering_deterministic():
    net = build_sigma_net(3, 0.8, seed=6)
    a = verify_covering(net, 20_000, rng_seed=7)
    b = verify_covering(net, 20_000, rng_seed=7)
    assert a == b


def test_nearest_ties_break_to_lowest_index():
    net = DirectionNet(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    idx, dist = net.nearest(np.array([[0.0, 1.0]]))
    assert idx[0] == 0
    assert dist[0] == pytest.approx(math.sqrt(2))


# build_sigma_net(3, 1.2, seed=7).points, recorded from the net built with
# np.linalg.norm for every pool distance
STEPS_3D_NET = [
    [1.0, 0.0, 0.0],
    [-0.9999820180622744, 0.005385153318280138, 0.002638877761425594],
    [-0.002916308496760859, -0.7827831988202832, -0.6222876816950796],
    [8.032805645817052e-05, -0.5252587269815264, 0.8509425734308688],
    [0.0014701725037152946, 0.7809620097410959, -0.6245767990679432],
    [-0.15984867990337812, 0.7403391029081317, 0.6529520749935099],
]


def test_steps_3d_net_is_pinned():
    # the steps-3d benchmark workload counts on a 6-point net for every seed
    assert {build_sigma_net(3, 1.2, seed).size for seed in range(40)} == {6}
    points = build_sigma_net(3, 1.2, seed=7).points
    assert np.array_equal(points.view(np.int64),
                          np.array(STEPS_3D_NET).view(np.int64))
