import numpy as np
import pytest

from promptscan.errors import ConfigError, TrainingAborted
from promptscan.optim import Adam
from promptscan.tensor import Tensor


def test_single_step_closed_form():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([0.5])
    opt = Adam({"p": p}, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    opt.step()
    # first step: m_hat = g, v_hat = g*g, so the update is lr * g / (|g| + eps)
    expected = 1.0 - 0.01 * 0.5 / (0.5 + 1e-8)
    assert abs(p.data[0] - expected) <= 1e-15


def test_two_steps_match_reference_recurrence():
    rng = np.random.default_rng(0)
    g1, g2 = rng.standard_normal(2)
    p = Tensor(np.array([0.3]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.05)

    m = v = 0.0
    x = 0.3
    for step, g in enumerate((g1, g2), start=1):
        p.grad = np.array([g])
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9**step)
        vh = v / (1 - 0.999**step)
        x -= 0.05 * mh / (np.sqrt(vh) + 1e-8)
        assert abs(p.data[0] - x) <= 1e-14


def test_quadratic_convergence():
    p = Tensor(np.array([10.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(400):
        opt.zero_grad()
        ((p - 3.0) * (p - 3.0)).sum().backward()
        opt.step()
    assert abs(p.data[0] - 3.0) < 1e-2


def test_update_order_is_name_sorted_not_insertion_sorted():
    grads = {"a": np.array([0.7]), "b": np.array([-1.2]), "c": np.array([0.1])}

    def run(names_in_order):
        params = {}
        for name in names_in_order:
            params[name] = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam(params, lr=0.01)
        for name, p in params.items():
            p.grad = grads[name]
        opt.step()
        return {k: params[k].data.copy() for k in sorted(params)}

    a = run(["b", "a", "c"])
    b = run(["c", "b", "a"])
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


def test_missing_gradient_leaves_parameter_unchanged():
    p = Tensor(np.array([2.0]), requires_grad=True)
    q = Tensor(np.array([5.0]), requires_grad=True)
    opt = Adam({"p": p, "q": q}, lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    assert q.data[0] == 5.0
    assert p.data[0] != 2.0


def test_nonfinite_gradient_aborts_with_parameter_name():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"w_out": p}, lr=0.1)
    p.grad = np.array([np.nan])
    with pytest.raises(TrainingAborted, match="w_out"):
        opt.step()


def test_nonfinite_gradient_aborts_before_any_update():
    """The bad gradient is on the last parameter in sorted order, so an
    update loop that checked as it went would have moved the others."""
    params = {name: Tensor(np.array([1.0]), requires_grad=True) for name in ("a", "b", "c")}
    opt = Adam(params, lr=0.1)
    params["a"].grad = np.array([1.0])
    params["c"].grad = np.array([np.inf])
    with pytest.raises(TrainingAborted, match="'c'"):
        opt.step()
    assert opt.step_count == 0
    for name, p in params.items():
        assert p.data[0] == 1.0, name
        assert not opt.m[name].any() and not opt.v[name].any(), name


def test_hyperparameter_validation():
    p = {"p": Tensor(np.array([1.0]), requires_grad=True)}
    with pytest.raises(ConfigError):
        Adam(p, lr=-0.1)
    with pytest.raises(ConfigError):
        Adam(p, beta1=1.0)
    with pytest.raises(ConfigError):
        Adam(p, beta2=-0.1)
    with pytest.raises(ConfigError):
        Adam(p, eps=0.0)


def test_zero_grad_clears_all():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([3.0])
    opt = Adam({"p": p})
    opt.zero_grad()
    assert p.grad is None
