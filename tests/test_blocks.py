"""Block operators on the (shell, parity) sectors (``fock.BlockOperator``)
against dense matrices: the sectors, every kind of product, the sum over
a stack and the exact norm ``verify.projected_norms``."""

import numpy as np
import pytest

from qheis import deform, fock, verify
from qheis.fock import Statistics
from qheis.qspecial import WEYL, DeformParams
from sparse_route import dense

SPACES = {
    "bose-1-4": (1, Statistics.BOSE, 4),
    "bose-2-5": (2, Statistics.BOSE, 5),
    "bose-3-6": (3, Statistics.BOSE, 6),
    "bose-4-4": (4, Statistics.BOSE, 4),
    "fermi-3": (3, Statistics.FERMI, None),
}


def table_matrices(table, d):
    """The operators of a ladder table as an N x D x D dense array."""
    out = np.zeros((table.cols.shape[0], d, d), dtype=table.vals.dtype)
    for i, (cols, vals) in enumerate(zip(table.cols[:, :d], table.vals[:, :d])):
        rows = np.flatnonzero(cols < d)
        out[i, rows, cols[rows]] = vals[rows]
    return out


def random_block(space, rng, dk, flip):
    """A block operator with random entries on the layout of the shifts
    (dk[l], flip[l])."""
    lay = space.sectors.layout(np.array(dk), np.array(flip))
    return fock.BlockOperator(space.sectors, lay, rng.normal(size=lay.total))


def stack(op, d):
    return dense(op).reshape(-1, d, d)


@pytest.mark.parametrize("key", SPACES)
def test_sectors_partition_the_basis_by_shell_and_parity(key):
    space = fock.build_space(*SPACES[key])
    sec = space.sectors
    assert sec is space.sectors  # built once
    assert sorted(sec.members.tolist()) == list(range(space.dim))
    for k in range(sec.size.size):
        states = sec.members[sec.start[k]:sec.start[k] + sec.size[k]]
        assert np.all(np.diff(states) > 0)
        assert np.array_equal(sec.place[states], np.arange(states.size))
        assert np.all(sec.of[states] == k)
        assert len({(space.shell[s], *(space.occ[s] % 2)) for s in states}) == 1
    keys = {(space.shell[s], *(space.occ[s] % 2)) for s in range(space.dim)}
    assert len(keys) == sec.size.size


@pytest.mark.parametrize("key", SPACES)
def test_products_are_the_dense_products(key):
    space = fock.build_space(*SPACES[key])
    d, n = space.dim, space.modes
    rng = np.random.default_rng([ord(ch) for ch in key])
    an, ap = table_matrices(space.an, d), table_matrices(space.ap, d)
    eye = fock.diagonal(space, np.ones(d))
    assert np.array_equal(dense(eye), np.eye(d))
    # the ladders in block form, from either side
    for table, mats in ((space.an, an), (space.ap, ap)):
        assert np.array_equal(stack(table @ eye, d), mats)
        assert np.array_equal(stack(eye @ table, d), mats)
    one = random_block(space, rng, [0], [0])
    x = dense(one)
    pair = random_block(space, rng, [-2], [0])  # a.a-like: a middle sector may be missing
    y = dense(pair)
    flips = list(1 << np.arange(n))
    many = random_block(space, rng, [1] * n, flips)  # one creator-like operator per mode
    z = stack(many, d)
    for table, mats in ((space.an, an), (space.ap, ap)):
        assert np.allclose(stack(table @ one, d), mats @ x, atol=1e-13)
        assert np.allclose(stack(one @ table, d), x @ mats, atol=1e-13)
        assert np.allclose(stack(table @ pair, d), mats @ y, atol=1e-13)
        assert np.allclose(stack(pair @ table, d), y @ mats, atol=1e-13)
    assert np.allclose(stack(space.an @ many, d), an @ z, atol=1e-13)  # mode by mode
    assert np.allclose(stack(many @ space.an, d), z @ an, atol=1e-13)
    assert np.allclose(dense(one @ pair), x @ y, atol=1e-13)
    assert np.allclose(dense(pair @ one), y @ x, atol=1e-13)
    assert np.allclose(stack(one @ many, d), x @ z, atol=1e-13)
    assert np.allclose(stack(many @ pair, d), z @ y, atol=1e-13)
    assert np.allclose(stack(space.ap @ (space.an @ eye), d), ap @ an, atol=1e-13)
    # sums, scalars and the sum over a stack
    assert np.allclose(dense(2 * one - pair @ (space.ap @ (space.ap @ eye)).sum_labels()),
                       2 * x - y @ sum(a @ a for a in ap), atol=1e-13)
    assert np.allclose(dense(np.float64(0.5) * one + one), 1.5 * x)


def test_stacks_of_different_shifts_refuse_to_add_or_sum():
    space = fock.build_space(3, Statistics.BOSE, 4)
    rng = np.random.default_rng(1)
    one = random_block(space, rng, [0], [0])
    with pytest.raises(ValueError):
        one + random_block(space, rng, [0, 0], [0, 0])
    with pytest.raises(ValueError):
        random_block(space, rng, [1, 1], [1, 2]).sum_labels()
    with pytest.raises(ValueError):
        random_block(space, rng, [0, 0], [0, 0]) @ random_block(space, rng, [0] * 3, [0] * 3)
    # a product takes the ladder tables of its own space only
    other = fock.build_space(3, Statistics.BOSE, 4)
    with pytest.raises(ValueError):
        other.an @ one


@pytest.mark.parametrize("key", SPACES)
def test_projected_norms_is_the_dense_norm(key):
    space = fock.build_space(*SPACES[key])
    d, n = space.dim, space.modes
    rng = np.random.default_rng([ord(ch) for ch in key] + [7])
    ops = [random_block(space, rng, [0], [0]), random_block(space, rng, [-2], [0]),
           random_block(space, rng, [1] * n, list(1 << np.arange(n))),
           random_block(space, rng, [-3] * n, list(1 << np.arange(n)))]
    for op in ops:
        assert op.size == op.data.size == sum(s.size for _, _, s in op.stacks())
        for degree in range(space.cutoff + 2):
            mask = space.safe_mask(degree)
            want = max((np.linalg.norm(b[np.ix_(mask, mask)], 2) if mask.any() else 0.0)
                       for b in stack(op, d))
            got = verify.projected_norms(space, op, degree)
            assert abs(got - want) <= 1e-13 * max(want, 1.0), (degree, got, want)


def test_metric_invariants_take_a_diagonal_metric_only():
    space = fock.build_space(3, Statistics.BOSE, 5)
    gens = deform.classical_generators(space, DeformParams(1.0, WEYL))
    eye = np.eye(3)
    rotated = eye.copy()
    rotated[0, 1] = 0.1
    for lower, upper in ((rotated, eye), (eye, rotated)):
        with pytest.raises(ValueError, match="diagonal metric"):
            verify.metric_invariant_check(gens, lower, upper, 1.0)
    scaled = np.diag([1.0, 2.0, 0.5])
    assert all(r.passed for r in verify.metric_invariant_check(gens, scaled, scaled, 1.0))
