import pytest

from opnet.bounds import error_bound, select_parameters
from opnet.kernels import KernelMetrics


def const_metrics(M, L=0.0):
    return KernelMetrics(sup_norm=M, lipschitz=L)


def test_worked_example():
    # p = q = 2, r = mu = 1, M = 1, constant kernel:
    # c* = 2, tail = 2/2 = 1, psi = 0, phi = 0.1, alpha = 2 * 0.1 = 0.2
    b = error_bound(2, 1, 1, lam=0.0, gamma=2.0, Delta=1.0, delta=0.1,
                    sigma=0.1, metrics=const_metrics(1.0))
    assert b.c_star == pytest.approx(2.0)
    assert b.tail_term == pytest.approx(1.0)
    assert b.psi == 0.0
    assert b.phi == pytest.approx(0.1)
    assert b.alpha == pytest.approx(0.2)
    assert b.total == pytest.approx(1.3)


def test_total_is_exact_five_term_sum():
    b = error_bound(3, 0.7, 2.0, lam=0.05, gamma=1.5, Delta=0.2, delta=0.3,
                    sigma=0.4, metrics=const_metrics(0.8, L=1.1))
    assert b.total == b.lam + b.tail_term + b.psi + b.phi + b.alpha


def test_zero_kernel_total_is_lambda():
    b = error_bound(2, 1, 1, lam=0.25, gamma=1.0, Delta=0.5, delta=0.5,
                    sigma=1.0, metrics=const_metrics(0.0))
    assert b.total == 0.25


def test_validation():
    m = const_metrics(1.0)
    with pytest.raises(ValueError):
        error_bound(1.0, 1, 1, 0, 1, 1, 0.5, 0.5, m)  # p must exceed 1
    with pytest.raises(ValueError):
        error_bound(2, 1, 1, 0, 1, 1, 2.0, 0.5, m)  # delta > gamma
    with pytest.raises(ValueError):
        error_bound(2, 1, 1, 0, 1, 1, 0.5, 3.0, m)  # sigma > 2
    with pytest.raises(ValueError):
        error_bound(2, 1, 1, -0.1, 1, 1, 0.5, 0.5, m)  # negative lambda
    with pytest.raises(ValueError):
        error_bound(2, 1, 1, 0, -1, 1, 0.5, 0.5, m)  # negative gamma


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_monotonicity(p):
    m = const_metrics(1.3, L=0.9)
    base = dict(p=p, r=1.1, mu=1.4, lam=0.0, gamma=2.0, Delta=0.5,
                delta=0.4, sigma=0.6, metrics=m)

    def total(**over):
        kw = dict(base)
        kw.update(over)
        return error_bound(**kw).total

    t0 = total()
    assert total(Delta=0.25) <= t0
    assert total(delta=0.2) < t0
    assert total(sigma=0.3) < t0
    assert total(lam=0.1) > t0
    # tail decreases with gamma while alpha grows, per-term signs
    b_lo = error_bound(**base)
    kw = dict(base)
    kw["gamma"] = 4.0
    b_hi = error_bound(**kw)
    assert b_hi.tail_term < b_lo.tail_term
    assert b_hi.alpha > b_lo.alpha


def test_selection_example():
    # epsilon = 1, p = 2, r = mu = M = 1:
    # gamma* = 5 c* M / eps = 10, delta* = 1/5M = 0.2, sigma* = 0.02
    sel = select_parameters(1.0, 2.0, 1.0, 1.0, const_metrics(1.0, L=1.0))
    assert sel.lam == pytest.approx(0.2)
    assert sel.gamma == pytest.approx(10.0)
    assert sel.delta == pytest.approx(0.2)
    assert sel.sigma == pytest.approx(0.02)
    assert not sel.degenerate
    assert sel.achieved.total <= 1.0 + 1e-12


@pytest.mark.parametrize("eps", [0.5, 0.2, 0.1])
def test_selection_closes_the_loop(eps):
    m = const_metrics(0.9, L=1.4)
    sel = select_parameters(eps, 2.0, 1.0, 1.5, m)
    refed = error_bound(2.0, 1.0, 1.5, sel.lam, sel.gamma,
                        sel.delta_partition, sel.delta, sel.sigma, m)
    assert refed.total <= eps + 1e-12
    assert refed.total == sel.achieved.total


def test_selection_homogeneity_in_epsilon():
    m = const_metrics(1.0, L=1.0)
    a = select_parameters(1.0, 2.0, 1.0, 1.0, m)
    b = select_parameters(0.5, 2.0, 1.0, 1.0, m)
    # for p = 2: gamma scales like 1/eps, delta and Delta like eps
    assert b.gamma == pytest.approx(2 * a.gamma)
    assert b.delta == pytest.approx(a.delta / 2)
    assert b.delta_partition == pytest.approx(a.delta_partition / 2)


def test_selection_zero_kernel_degenerate():
    sel = select_parameters(0.3, 2.0, 1.0, 1.0, const_metrics(0.0))
    assert sel.degenerate
    assert sel.achieved.total == sel.lam == pytest.approx(0.06)


def test_selection_clamps_delta_and_sigma():
    # huge epsilon pushes delta* above gamma*; both clamps must engage
    sel = select_parameters(1e6, 2.0, 1.0, 1.0, const_metrics(1.0, L=1.0))
    assert sel.delta <= sel.gamma
    assert sel.sigma <= 2.0
    assert sel.achieved.total <= 1e6 + 1e-12
