"""Block operators on the (shell, parity) sectors (``fock.BlockOperator``)
against dense matrices: the sectors, every kind of product, the sum over
a stack and the exact norm ``verify.projected_norms``, which factorizes
only the blocks that can hold the largest norm and must read the largest
over all of them to the last bit."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qheis import deform, fock, suites, verify
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


@functools.cache
def cached_space(key):
    return fock.build_space(*SPACES[key])


def every_block_norm(space, op, degree):
    """The largest norm of the blocks P keeps, from one SVD of every kept
    block (the norm without pruning)."""
    sec = op.sectors
    safe = space.safe_mask(degree)[sec.members[sec.start]]
    spec = 0.0
    for src, dst, blocks in op.stacks():
        kept = blocks[safe[src] & safe[dst]]
        if kept.size:
            spec = max(spec, float(np.linalg.svd(kept, compute_uv=False)[:, 0].max()))
    return spec


def block_slice(lay, b):
    return slice(lay.offset[b], lay.offset[b] + lay.height[b] * lay.width[b])


@st.composite
def block_operators(draw):
    """A block operator with random entries on a random layout of a small
    space, shaped so that the largest norm sits in a thin (1 x k or k x 1)
    block, in two blocks of equal norm, in the one nonzero block, or is 0."""
    key = draw(st.sampled_from(sorted(SPACES)))
    space = cached_space(key)
    size = draw(st.integers(1, 3))
    dk = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    flip = draw(st.lists(st.integers(0, (1 << space.modes) - 1), min_size=size,
                         max_size=size))
    lay = space.sectors.layout(np.array(dk), np.array(flip))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(size=lay.total)
    if draw(st.booleans()):
        data = data + 1j * rng.normal(size=lay.total)
    shape = draw(st.sampled_from(["random", "thin", "tie", "single", "zero"]))
    blocks = np.arange(lay.label.size)
    if shape == "thin":
        thin = blocks[(np.minimum(lay.height, lay.width) == 1) & (lay.height * lay.width > 1)]
        if thin.size:
            data[block_slice(lay, draw(st.sampled_from(thin.tolist())))] *= 100.0
    elif shape == "tie":
        for m, k in {(int(m), int(k)) for m, k in zip(lay.height, lay.width)}:
            same = blocks[(lay.height == m) & (lay.width == k)]
            for b in same[1:]:
                data[block_slice(lay, b)] = data[block_slice(lay, same[0])]
    elif shape == "single" and blocks.size:
        keep = block_slice(lay, draw(st.sampled_from(blocks.tolist())))
        data[:keep.start] = data[keep.stop:] = 0
    elif shape == "zero":
        data[:] = 0
    return space, fock.BlockOperator(space.sectors, lay, data)


@given(block_operators())
@settings(max_examples=150, deadline=None)
def test_projected_norms_is_the_norm_of_every_block_bit_for_bit(case):
    space, op = case
    for degree in range(space.cutoff + 2):
        assert verify.projected_norms(space, op, degree) == every_block_norm(space, op, degree)


def test_projected_norms_refuses_a_non_finite_kept_entry():
    space = fock.build_space(3, Statistics.BOSE, 5)
    top = int(np.flatnonzero(space.shell == space.cutoff)[0])
    for bad in (np.inf, -np.inf, np.nan, complex(0, np.inf)):
        values = np.ones(space.dim, dtype=complex)
        values[7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            verify.projected_norms(space, fock.diagonal(space, values), 0)
        # a block that P drops may hold anything
        values = np.ones(space.dim, dtype=complex)
        values[top] = bad
        assert verify.projected_norms(space, fock.diagonal(space, values), 1) == 1.0
    # finite entries whose squares overflow are normed without pruning
    values = np.ones(space.dim)
    values[[3, 9]] = 1e200, -2e200
    op = fock.diagonal(space, values)
    assert verify.projected_norms(space, op, 0) == every_block_norm(space, op, 0) == 2e200


def test_component_norm_refuses_a_non_finite_kept_entry():
    rows, cols = np.array([0, 0, 1, 2]), np.array([0, 1, 1, 3])
    mask = np.ones(4, dtype=bool)
    for bad in (np.inf, np.nan):
        for at in (1, 3):  # in a component of several entries, or alone
            vals = np.array([1.0, 2.0, 0.5, 1.5], dtype=complex)
            vals[at] = bad
            with pytest.raises(ValueError, match="not finite"):
                verify._norm_of_entries(rows, cols, vals, mask)
            # dropped by the mask: the rest is normed
            mask_out = mask.copy()
            mask_out[cols[at]] = False
            assert np.isfinite(verify._norm_of_entries(rows, cols, vals, mask_out))


def test_a_non_finite_generator_entry_fails_its_unit(monkeypatch):
    def broken(space, params):
        vals = space.an.vals.copy()
        vals[0, 0] = np.inf  # a^1 on the vacuum, a safe state
        return deform.DeformedGenerators(space, params, fock.LadderTable(space.an.cols, vals),
                                         space.ap)

    monkeypatch.setattr(deform, "classical_generators", broken)
    with np.errstate(all="ignore"):  # inf times a zero entry: as outside the tests
        report = suites.run_suite(suites.make_config("soN-orbital", modes=3, cutoff=4))
    failed = {c.name: c.metadata for c in report.cases if not c.passed}
    assert list(failed) == ["classical/EXECUTION"]
    assert "non-finite" in failed["classical/EXECUTION"]["error"]


def test_projected_norms_factorizes_few_blocks(monkeypatch):
    # at the benchmark's soN-orbital point the bounds leave at most 10% of
    # the kept blocks to the SVD
    kept, factorized = [0], [0]
    norms, svd = verify.projected_norms, np.linalg.svd

    def counting_norms(space, m, degree):
        sec, lay = m.sectors, m.layout
        safe = space.safe_mask(degree)[sec.members[sec.start]]
        kept[0] += int((safe[lay.src] & safe[lay.dst]).sum())
        return norms(space, m, degree)

    def counting_svd(a, *args, **kwargs):
        factorized[0] += a.shape[0]
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(suites.soshift, "projected_norms", counting_norms)
    monkeypatch.setattr(verify, "projected_norms", counting_norms)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    suites.run_suite(suites.make_config("soN-orbital", modes=3, cutoff=10))
    assert kept[0] > 1000
    assert factorized[0] <= 0.1 * kept[0], (factorized, kept)
