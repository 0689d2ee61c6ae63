"""Block operators (``fock.BlockOperator``) against dense matrices, on
both partitions the package builds: the (shell, parity) sectors of a Fock
space and the weight blocks of the KZ operator system.  The numbering of
the parts, construction from entries, every kind of product, the sum over
a stack and the exact norm ``verify.projected_norms``, which factorizes
only the blocks that can hold the largest norm and must read the largest
over all of them to the last bit.  A product with a ladder in block form
is, entry by entry, the one product of two entries that a gather from
the ladder table makes."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qheis import deform, fock, kz, suites, verify
from qheis.fock import Statistics
from sparse_route import dense

SPACES = {
    "bose-1-4": (1, Statistics.BOSE, 4),
    "bose-2-5": (2, Statistics.BOSE, 5),
    "bose-3-6": (3, Statistics.BOSE, 6),
    "bose-4-4": (4, Statistics.BOSE, 4),
    "fermi-3": (3, Statistics.FERMI, None),
}
# the weight partitions of C^N x C^N x Fock(N, cutoff) (``kz``)
WEIGHTS = {"weight-2-3": (2, 3), "weight-3-3": (3, 3)}


@functools.cache
def cached_space(key):
    return fock.build_space(*SPACES[key])


@functools.cache
def cached_weights(key):
    """(Fock space, weight partition, shell of each basis vector)."""
    space = fock.build_space(WEIGHTS[key][0], Statistics.BOSE, WEIGHTS[key][1])
    system = kz.build_operator_system(space)
    return space, system.p.partition, np.tile(space.shell, space.modes**2)


def partition_of(key):
    """(Fock space, partition, shell of each state) of a key of SPACES or
    WEIGHTS."""
    if key in WEIGHTS:
        return cached_weights(key)
    space = cached_space(key)
    return space, space.sectors, space.shell


def fock_moves(modes, dk, flip):
    """The sector moves of operators that move the shell by dk[l] and flip
    the parities of the modes in the bit mask flip[l]: the key is
    (shell, n_N mod 2, ..., n_1 mod 2)."""
    bits = (np.array(flip)[:, None] >> np.arange(modes)[::-1]) & 1
    return np.column_stack([dk, bits])


def table_matrices(table, d):
    """The operators of a ladder table as an N x D x D dense array."""
    out = np.zeros((table.cols.shape[0], d, d), dtype=table.vals.dtype)
    for i, (cols, vals) in enumerate(zip(table.cols[:, :d], table.vals[:, :d])):
        rows = np.flatnonzero(cols < d)
        out[i, rows, cols[rows]] = vals[rows]
    return out


def random_block(space, rng, dk, flip):
    """A block operator on the sectors with random entries on the layout of
    the shifts (dk[l], flip[l])."""
    return random_moved(space.sectors, rng, fock_moves(space.modes, dk, flip))


def random_moved(parts, rng, moves):
    """A block operator with random entries on the layout of the moves."""
    lay = parts.layout(np.array(moves))
    return fock.BlockOperator(parts, lay, rng.normal(size=lay.total))


def stack(op, d):
    return dense(op).reshape(-1, d, d)


def sector_numbers(space):
    """The sector of each state by the rank of
    shell 2^N + sum_i (n_i mod 2) 2^i: the shell first, then the parity
    bits, mode N leading."""
    bits = (space.occ % 2) @ (1 << np.arange(space.modes))
    return np.unique(space.shell * (1 << space.modes) + bits, return_inverse=True)[1]


def weight_numbers(key):
    """The weight block of each basis vector (a, b, o) by the rank of its
    weight e_a + e_b + o in the lexicographic order of np.unique's row sort."""
    n, cutoff = WEIGHTS[key]
    space = fock.build_space(n, Statistics.BOSE, cutoff)
    e = np.eye(n, dtype=int)
    weights = (e[:, None, None] + e[None, :, None] + space.occ).reshape(-1, n)
    return np.unique(weights, axis=0, return_inverse=True)[1].reshape(-1)


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


@pytest.mark.parametrize("key", [*SPACES, *WEIGHTS, "random"])
def test_partitions_number_their_parts_by_key(key):
    if key == "random":  # negative keys, a modulus, and a constant coordinate
        keys = np.random.default_rng(5).integers(-3, 4, size=(200, 3))
        keys[:, 2] = 7
        shell = np.zeros(200, dtype=int)
        parts = fock.Partition(keys, [0, 2, 0], shell)
        keys[:, 1] %= 2
        want = np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1)
    elif key in WEIGHTS:
        _, parts, shell = partition_of(key)
        want = weight_numbers(key)
    else:
        space, parts, shell = partition_of(key)
        want = sector_numbers(space)
    assert np.array_equal(parts.of, want)
    assert np.array_equal(np.unique(parts.key, axis=0), parts.key)  # in lexicographic order
    assert np.array_equal(shell, parts.shell[parts.of])


def test_from_entries_refuses_an_operator_that_maps_a_part_to_two():
    space = fock.build_space(3, Statistics.BOSE, 4)
    parts = space.sectors
    one, two = space.state_index((1, 0, 0)), space.state_index((0, 1, 0))
    vac = space.state_index((0, 0, 0))
    # the vacuum to two sectors of shell 1; as two operators, it is allowed
    with pytest.raises(ValueError, match="maps part 0 to two parts"):
        fock.BlockOperator.from_entries(parts, [one, two], [vac, vac], [1.0, 2.0])
    ok = fock.BlockOperator.from_entries(parts, [one, two], [vac, vac], [1.0, 2.0], [0, 1])
    assert np.array_equal(stack(ok, space.dim)[:, [one, two], vac], [[1, 0], [0, 2]])
    # on the weight partition: (0, 0, vacuum) has weight 2 e_1, and a state
    # of each other weight of that shell is a second target
    fock_space, weights, _ = partition_of("weight-2-3")
    d = fock_space.dim  # basis vector d is (0, 1, vacuum), of weight e_1 + e_2
    with pytest.raises(ValueError, match="two parts"):
        fock.BlockOperator.from_entries(weights, [0, d], [0, 0], [1.0, 1.0])
    # no entries: the zero operator that keeps the parts
    nothing = np.zeros(0, dtype=int)
    none = fock.BlockOperator.from_entries(weights, nothing, nothing, np.zeros(0))
    assert none.layout is fock.diagonal(weights, np.ones(weights.of.size)).layout
    assert not none.data.any()
    # entries at one place add up
    both = fock.BlockOperator.from_entries(weights, [d, d], [0, 0], [1.0, 2.0])
    assert dense(both)[d, 0] == 3.0 and np.count_nonzero(dense(both)) == 1


@pytest.mark.parametrize("key", SPACES)
def test_products_are_the_dense_products(key):
    space = fock.build_space(*SPACES[key])
    d, n = space.dim, space.modes
    rng = np.random.default_rng([ord(ch) for ch in key])
    an, ap = table_matrices(space.an, d), table_matrices(space.ap, d)
    a_blocks, ap_blocks = space.ladder_blocks
    assert space.ladder_blocks[0] is a_blocks  # built once
    eye = fock.diagonal(space.sectors, np.ones(d))
    assert np.array_equal(dense(eye), np.eye(d))
    # the ladders in block form, alone and from either side of the identity
    for blocks, mats in ((a_blocks, an), (ap_blocks, ap)):
        assert blocks.data.dtype == float
        for op in (blocks, blocks @ eye, eye @ blocks):
            assert np.array_equal(stack(op, d), mats)
    one = random_block(space, rng, [0], [0])
    x = dense(one)
    pair = random_block(space, rng, [-2], [0])  # a.a-like: a middle sector may be missing
    y = dense(pair)
    flips = list(1 << np.arange(n))
    many = random_block(space, rng, [1] * n, flips)  # one creator-like operator per mode
    z = stack(many, d)
    for blocks, mats in ((a_blocks, an), (ap_blocks, ap)):
        assert np.allclose(stack(blocks @ one, d), mats @ x, atol=1e-13)
        assert np.allclose(stack(one @ blocks, d), x @ mats, atol=1e-13)
        assert np.allclose(stack(blocks @ pair, d), mats @ y, atol=1e-13)
        assert np.allclose(stack(pair @ blocks, d), y @ mats, atol=1e-13)
    assert np.allclose(stack(a_blocks @ many, d), an @ z, atol=1e-13)  # mode by mode
    assert np.allclose(stack(many @ a_blocks, d), z @ an, atol=1e-13)
    assert np.allclose(dense(one @ pair), x @ y, atol=1e-13)
    assert np.allclose(dense(pair @ one), y @ x, atol=1e-13)
    assert np.allclose(stack(one @ many, d), x @ z, atol=1e-13)
    assert np.allclose(stack(many @ pair, d), z @ y, atol=1e-13)
    assert np.allclose(stack(ap_blocks @ a_blocks, d), ap @ an, atol=1e-13)
    # sums, scalars and the sum over a stack
    assert np.allclose(dense(2 * one - pair @ (ap_blocks @ ap_blocks).sum_labels()),
                       2 * x - y @ sum(a @ a for a in ap), atol=1e-13)
    assert np.allclose(dense(np.float64(0.5) * one + one), 1.5 * x)


def gathered(table, x, d, rows):
    """table x (rows) or x table for a ladder table and an L x D x D stack
    x (L = 1 or N), entry by entry as a gather from the table: row r of
    T_i X is T_i[r] X[t] for the column t of row r's entry, and column t
    of X T_i is X[:, r] T_i[r]; zero elsewhere."""
    out = np.zeros((table.cols.shape[0], d, d), dtype=np.result_type(table.vals, x))
    for i, (cols, vals) in enumerate(zip(table.cols[:, :d], table.vals[:, :d])):
        xi = x[min(i, len(x) - 1)]
        for r in np.flatnonzero(cols < d):
            if rows:
                out[i, r, :] = xi[cols[r], :] * vals[r]
            else:
                out[i, :, cols[r]] = xi[:, r] * vals[r]
    return out


def dressed_table(space, table, phases):
    """A dressed ladder table like those of the metric invariant check:
    C_ii times a q-dressing of the occupations, times the table; with
    phases, C_ii is a phase."""
    first = np.arange(1, space.modes + 1)
    metric = np.exp(1j * first) if phases else first.astype(float)
    dressing = np.append(1.3 ** (space.shell / 2.0), 0.0)
    return fock.LadderTable(table.cols, metric[:, None] * dressing * table.vals)


@pytest.mark.parametrize("key", ["bose-3-6", "fermi-3"])
def test_ladder_products_are_the_gathers_bit_for_bit(key):
    # a ladder block holds at most one entry per row and per column, so
    # each entry of a product with it is one product of two entries plus
    # exact zeros: the gather's, to the last bit, whenever one of the two
    # factors is real-valued.  Where both have imaginary parts the complex
    # multiply-add of BLAS may round otherwise, and only closeness holds.
    space = cached_space(key)
    d, n = space.dim, space.modes
    rng = np.random.default_rng([ord(ch) for ch in key] + [3])
    flips = list(1 << np.arange(n))
    real = [random_block(space, rng, [0], [0]), random_block(space, rng, [-2], [0]),
            random_block(space, rng, [1] * n, flips)]
    imag = [op + 1j * random_moved(space.sectors, rng, op.layout.moves) for op in real]
    cases = []  # (ladder table, the same in block form, operands, bit for bit)
    for k, table in enumerate((space.an, space.ap)):
        real_valued = dressed_table(space, table, phases=False)
        phased = dressed_table(space, table, phases=True)
        cases += [(table, space.ladder_blocks[k], real + imag, True),
                  (table, fock.ladder_stack(space, table), real + imag, True),
                  (real_valued, fock.ladder_stack(space, real_valued), real + imag, True),
                  (phased, fock.ladder_stack(space, phased), real, True),
                  (phased, fock.ladder_stack(space, phased), imag, False)]
    for table, blocks, ops, exact in cases:
        assert np.array_equal(stack(blocks, d), table_matrices(table, d))
        same = np.array_equal if exact else functools.partial(np.allclose, atol=1e-13)
        for op in ops:
            x = stack(op, d)
            assert same(stack(blocks @ op, d), gathered(table, x, d, rows=True))
            assert same(stack(op @ blocks, d), gathered(table, x, d, rows=False))


@pytest.mark.parametrize("key", WEIGHTS)
def test_weight_block_products_are_the_dense_products(key):
    space, parts, _ = partition_of(key)
    n = space.modes
    d = parts.of.size
    rng = np.random.default_rng([ord(ch) for ch in key])
    eye = fock.diagonal(parts, np.ones(d))
    assert np.array_equal(dense(eye), np.eye(d))
    e = np.eye(n, dtype=int)
    one = random_moved(parts, rng, [[0] * n])
    x = dense(one)
    step = random_moved(parts, rng, [e[0] - e[1]])  # E_12-like: some targets are missing
    y = dense(step)
    many = random_moved(parts, rng, [e[0] - e[1], e[1] - e[0], e[0]])  # a stack of three
    z = stack(many, d)
    assert np.allclose(dense(one @ step), x @ y, atol=1e-13)
    assert np.allclose(dense(step @ one), y @ x, atol=1e-13)
    assert np.allclose(dense(step @ step), y @ y, atol=1e-13)
    assert np.allclose(stack(one @ many, d), x @ z, atol=1e-13)
    assert np.allclose(stack(many @ step, d), z @ y, atol=1e-13)
    assert np.allclose(stack(many @ many, d), z @ z, atol=1e-13)  # operator by operator
    assert np.array_equal(dense(eye @ one), x) and np.array_equal(dense(one @ eye), x)
    # sums, scalars and the sum over a stack
    assert np.allclose(dense(2 * step - one @ (1j * step)), 2 * y - 1j * x @ y, atol=1e-13)
    alike = random_moved(parts, rng, [e[0] - e[1]] * 3)
    assert np.allclose(dense(alike.sum_labels()), stack(alike, d).sum(axis=0), atol=1e-13)
    # a block operator built from its dense entries is the same operator
    label, rows, cols = np.nonzero(z.reshape(-1, d, d))
    again = fock.BlockOperator.from_entries(parts, rows, cols, z[label, rows, cols], label)
    assert again.layout is many.layout and np.array_equal(again.data, many.data)
    # block operators of different partitions do not multiply
    ladder = space.ladder_blocks[0]
    with pytest.raises(ValueError, match="different partitions"):
        ladder @ one
    with pytest.raises(ValueError, match="different partitions"):
        one @ ladder


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
    # a product takes the ladders of its own space only, in block form; the
    # other space of the same shape is built apart from the shared one
    other = fock._new_space(3, Statistics.BOSE, 4)
    assert other == space and other is not space
    with pytest.raises(ValueError, match="different partitions"):
        other.ladder_blocks[0] @ one
    with pytest.raises(ValueError, match="different partitions"):
        one @ other.ladder_blocks[1]
    with pytest.raises(TypeError):
        space.an @ one
    with pytest.raises(TypeError):
        one @ space.an


def safe_states(key, degree):
    """The safe states at creator degree `degree` of the partition of key:
    the safe Fock states, or the (a, b, o) whose o is safe."""
    space = partition_of(key)[0]
    mask = space.safe_mask(degree)
    return np.tile(mask, space.modes**2) if key in WEIGHTS else mask


@pytest.mark.parametrize("key", [*SPACES, *WEIGHTS])
def test_projected_norms_is_the_dense_norm(key):
    space, parts, _ = partition_of(key)
    d, n = parts.of.size, space.modes
    rng = np.random.default_rng([ord(ch) for ch in key] + [7])
    if key in WEIGHTS:
        e = np.eye(n, dtype=int)
        ops = [random_moved(parts, rng, [0 * e[0]]), random_moved(parts, rng, [e[0] - e[1]]),
               random_moved(parts, rng, [e[0], -e[1], e[1] - e[0]]),
               random_moved(parts, rng, -2 * e)]
    else:
        ops = [random_block(space, rng, [0], [0]), random_block(space, rng, [-2], [0]),
               random_block(space, rng, [1] * n, list(1 << np.arange(n))),
               random_block(space, rng, [-3] * n, list(1 << np.arange(n)))]
    for op in ops:
        assert op.size == op.data.size == sum(s.size for _, _, s in op.stacks())
        for degree in range(space.cutoff + 2):
            mask = safe_states(key, degree)
            want = max((np.linalg.norm(b[np.ix_(mask, mask)], 2) if mask.any() else 0.0)
                       for b in stack(op, d))
            got = verify.projected_norms(space, op, degree)
            assert abs(got - want) <= 1e-13 * max(want, 1.0), (degree, got, want)


def test_metric_invariants_take_a_diagonal_metric_only():
    space = fock.build_space(3, Statistics.BOSE, 5)
    gens = deform.classical_generators(space)
    eye = np.eye(3)
    rotated = eye.copy()
    rotated[0, 1] = 0.1
    for lower, upper in ((rotated, eye), (eye, rotated)):
        with pytest.raises(ValueError, match="diagonal metric"):
            verify.metric_invariant_check(gens, lower, upper)
    scaled = np.diag([1.0, 2.0, 0.5])
    assert all(r.passed for r in verify.metric_invariant_check(gens, scaled, scaled))


def every_block_norm(op, mask):
    """The largest norm of the blocks that the projector onto the states
    in mask keeps, from one SVD of every kept block (the norm without
    pruning)."""
    parts = op.partition
    safe = mask[parts.members[parts.start]]
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
    key = draw(st.sampled_from(sorted(SPACES) + sorted(WEIGHTS)))
    space, parts, _ = partition_of(key)
    size = draw(st.integers(1, 3))
    if key in WEIGHTS:
        moves = [draw(st.lists(st.integers(-1, 1), min_size=space.modes,
                               max_size=space.modes)) for _ in range(size)]
    else:
        dk = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
        flip = draw(st.lists(st.integers(0, (1 << space.modes) - 1), min_size=size,
                             max_size=size))
        moves = fock_moves(space.modes, dk, flip)
    lay = parts.layout(np.array(moves))
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
    return key, fock.BlockOperator(parts, lay, data)


@given(block_operators())
@settings(max_examples=200, deadline=None)
def test_projected_norms_is_the_norm_of_every_block_bit_for_bit(case):
    key, op = case
    space = partition_of(key)[0]
    for degree in range(space.cutoff + 2):
        want = every_block_norm(op, safe_states(key, degree))
        assert verify.projected_norms(space, op, degree) == want


def test_projected_norms_refuses_a_non_finite_kept_entry():
    space = fock.build_space(3, Statistics.BOSE, 5)
    top = int(np.flatnonzero(space.shell == space.cutoff)[0])
    for bad in (np.inf, -np.inf, np.nan, complex(0, np.inf)):
        values = np.ones(space.dim, dtype=complex)
        values[7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            verify.projected_norms(space, fock.diagonal(space.sectors, values), 0)
        # a block that P drops may hold anything
        values = np.ones(space.dim, dtype=complex)
        values[top] = bad
        assert verify.projected_norms(space, fock.diagonal(space.sectors, values), 1) == 1.0
    # finite entries whose squares overflow are normed without pruning
    values = np.ones(space.dim)
    values[[3, 9]] = 1e200, -2e200
    op = fock.diagonal(space.sectors, values)
    assert verify.projected_norms(space, op, 0) == every_block_norm(op, space.safe_mask(0)) == 2e200


def test_a_non_finite_generator_entry_fails_its_unit(monkeypatch):
    def broken(space):
        vals = space.an.vals.copy()
        vals[0, 0] = np.inf  # a^1 on the vacuum, a safe state
        return deform.DeformedGenerators(space, 1.0, fock.LadderTable(space.an.cols, vals),
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
        safe = space.safe_shells(m.partition.shell, degree)
        lay = m.layout
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
