import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import sparse_route
from qheis import fock
from qheis.fock import Statistics
from sparse_route import csr_list


def test_dimensions():
    assert fock.build_space(2, Statistics.FERMI).dim == 4
    assert fock.build_space(2, Statistics.BOSE, 3).dim == 10  # C(5, 2)
    sp = fock.build_space(1, Statistics.BOSE, 5)
    assert sp.occ.tolist() == [[k] for k in range(6)]


def test_statistics_fix_the_sign():
    # the one map from statistics to the Weyl-or-Clifford sign s
    assert Statistics.BOSE.sign == fock.WEYL == +1
    assert Statistics.FERMI.sign == fock.CLIFFORD == -1


def test_build_space_rejects_bad_input():
    with pytest.raises(ValueError):
        fock.build_space(0, Statistics.BOSE, 3)
    with pytest.raises(ValueError):
        fock.build_space(2, Statistics.BOSE, 0)
    with pytest.raises(ValueError):
        fock.build_space(2, Statistics.BOSE)  # cutoff required for bosons


@given(modes=st.integers(1, 4), cutoff=st.integers(1, 5),
       fermi=st.booleans())
@settings(max_examples=40, deadline=None)
def test_index_and_basis_are_mutually_inverse(modes, cutoff, fermi):
    sp = fock.build_space(modes, Statistics.FERMI if fermi else Statistics.BOSE,
                          cutoff)
    basis = list(map(tuple, sp.occ.tolist()))
    for k, t in enumerate(basis):
        assert sp.state_index(t) == k
    # lexicographic ordering is strict
    assert basis == sorted(set(basis))
    with pytest.raises(KeyError):
        sp.state_index((sp.cutoff + 1,) + (0,) * (modes - 1))


def test_spaces_compare_by_what_fixes_them():
    sp = fock.build_space(2, Statistics.BOSE, 3)
    assert sp == fock._new_space(2, Statistics.BOSE, 3)  # a space of its own
    assert hash(sp) == hash(fock._new_space(2, Statistics.BOSE, 3))
    assert sp != fock.build_space(2, Statistics.BOSE, 4)
    assert fock.build_space(2, Statistics.FERMI) != fock.build_space(2, Statistics.BOSE, 2)


def test_one_space_per_process():
    assert fock.build_space(3, Statistics.BOSE, 4) is fock.build_space(3, Statistics.BOSE, 4)
    # the fermionic cutoff is N whatever is asked for
    fermi = fock.build_space(2, Statistics.FERMI)
    assert fermi is fock.build_space(2, Statistics.FERMI, 5) and fermi.cutoff == 2
    # what is built on a space is built once and kept with it
    assert fermi.sectors is fock.build_space(2, Statistics.FERMI).sectors
    built = []
    assert fermi.derived("key", lambda: built.append(1) or "value") == "value"
    assert fermi.derived("key", lambda: built.append(1) or "other") == "value"
    assert built == [1]


def test_the_least_recently_used_space_is_dropped():
    fock._interned_space.cache_clear()
    first, second = (fock.build_space(1, Statistics.BOSE, c) for c in (1, 2))
    rest = [fock.build_space(1, Statistics.BOSE, c) for c in range(3, fock.SPACES_HELD + 1)]
    assert fock.build_space(1, Statistics.BOSE, 1) is first  # now the most recent
    fock.build_space(1, Statistics.BOSE, fock.SPACES_HELD + 1)  # a ninth space
    assert fock._interned_space.cache_info().currsize == fock.SPACES_HELD == 8
    assert fock.build_space(1, Statistics.BOSE, 1) is first
    assert fock.build_space(1, Statistics.BOSE, 3) is rest[0]
    assert fock.build_space(1, Statistics.BOSE, 2) is not second  # dropped, built anew
    assert fock.build_space(1, Statistics.BOSE, 2) == second


def test_invalid_spaces_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            fock.build_space(2, Statistics.BOSE)
        with pytest.raises(ValueError):
            fock.build_space(0, Statistics.FERMI)


def test_shared_operands_are_read_only():
    # no call can change an operand that a later call shares
    from qheis import suites

    def arrays(x):
        if isinstance(x, np.ndarray):
            return [x]
        if isinstance(x, float):
            return []
        if isinstance(x, fock.BlockOperator):
            return [x.data]
        if isinstance(x, (tuple, list)):
            return [a for item in x for a in arrays(item)]
        return [a for value in vars(x).values() for a in arrays(value)]

    def kept(space, key):
        return space.derived(key, lambda: pytest.fail(f"{key} is not kept on {space}"))

    fock._interned_space.cache_clear()
    for suite in ("sl2-bose", "sl2-fermi", "soN-orbital", "kz-operator"):
        suites.run_suite(suites.make_config(suite))
    orb_space = fock.build_space(3, Statistics.BOSE, 6)
    kz_space = fock.build_space(2, Statistics.BOSE, 5)
    orb, system = kept(orb_space, "orbital"), kept(kz_space, "kz")
    shared = [orb_space.ladder_blocks, orb_space.pair_targets,
              [orb.l2, orb.l, orb.aa, orb.apap],
              [system.p, system.a, system.series, system.gather, system.ladders,
               system.vacuum, system.eye, system.delta],
              [kept(fock.build_space(2, stat, 8), ("sigma", "sl", 2)) for stat in Statistics]]
    found = arrays(shared)
    assert len(found) > 30
    # the kz series operands, one SeriesStack of six arrays per stack of
    # sorted-key blocks, and the gather are among them
    assert len(system.series) == len(system.p.layout.groups)
    assert len(arrays([system.series, system.gather])) == 6 * len(system.series) + 1
    # the pair targets are indices at most D, held as int32
    assert all(t.dtype == np.int32 for t in orb_space.pair_targets)
    for arr in found:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.reshape(-1)[:1] = 0


def test_bose_number_eigenvalues():
    sp = fock.build_space(2, Statistics.BOSE, 4)
    ada = csr_list(sp.ap)[0].toarray() @ csr_list(sp.an)[0].toarray()
    for k, t in enumerate(sp.occ):
        assert abs(ada[k, k] - t[0]) < 1e-14


def test_fermi_car_exact_on_full_space():
    sp = fock.build_space(3, Statistics.FERMI)
    an, ap_ops = csr_list(sp.an), csr_list(sp.ap)
    for i, a in enumerate(an):
        for j, ap in enumerate(ap_ops):
            acomm = (a @ ap + ap @ a).toarray()
            target = np.eye(sp.dim) if i == j else 0.0
            assert np.linalg.norm(acomm - target) == 0.0
    # pure annihilator pairs anticommute as well
    a1, a2 = an[:2]
    assert np.linalg.norm((a1 @ a2 + a2 @ a1).toarray()) == 0.0


def test_bose_ccr_on_safe_subspace():
    sp = fock.build_space(2, Statistics.BOSE, 3)
    safe = np.ix_(sp.safe_mask(1), sp.safe_mask(1))
    an, ap_ops = csr_list(sp.an), csr_list(sp.ap)
    for i, a in enumerate(an):
        for j, ap in enumerate(ap_ops):
            comm = (a @ ap - ap @ a).toarray()
            target = np.eye(sp.dim) if i == j else 0.0
            assert np.linalg.norm((comm - target)[safe]) < 1e-13
    # the defect lives only on the top shell: restricting to total <= 2
    mask = sp.shell <= 2
    comm = (an[0] @ ap_ops[0] - ap_ops[0] @ an[0]).toarray()
    sub = (comm - np.eye(sp.dim))[np.ix_(mask, mask)]
    assert np.linalg.norm(sub) < 1e-14


def test_number_operators():
    sp = fock.build_space(2, Statistics.BOSE, 4)
    n = sparse_route.diag(sp.shell).toarray()
    vac = sp.state_index((0, 0))
    assert n[vac, vac] == 0
    k = sp.state_index((1, 2))
    assert n[k, k] == 3
    an, ap_ops = csr_list(sp.an), csr_list(sp.ap)
    summed = sum(ap.toarray() @ a.toarray() for a, ap in zip(an, ap_ops))
    assert np.linalg.norm(summed - n) < 1e-13
    # the mode-i number operator is the i-th column of the occupation table
    for a, ap, col in zip(an, ap_ops, sp.occ.T):
        assert np.linalg.norm((ap @ a).toarray() - np.diag(col)) < 1e-13


def test_safe_mask_ranks():
    sp = fock.build_space(1, Statistics.BOSE, 3)
    assert [int(sp.safe_mask(d).sum()) for d in (0, 1, 3)] == [4, 3, 1]
    assert np.flatnonzero(sp.safe_mask(3)).tolist() == [sp.state_index((0,))]
    # above the cutoff no bosonic state is safe
    assert not sp.safe_mask(4).any()


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_fermionic_spaces_are_all_safe(modes):
    # a fermionic space is not truncated: every identity holds on all of it
    sp = fock.build_space(modes, Statistics.FERMI)
    for degree in (0, 1, 2, sp.cutoff, sp.cutoff + 1, sp.cutoff + 5):
        assert sp.safe_mask(degree).tolist() == [True] * sp.dim


def test_diag():
    sp = fock.build_space(2, Statistics.BOSE, 3)
    assert np.array_equal(sparse_route.diag(np.ones(sp.dim)).toarray(), np.eye(sp.dim))
    d = sparse_route.diag(2.0 ** sp.occ[:, 1])
    k = sp.state_index((0, 3))
    assert d.toarray()[k, k] == 8.0
    # diagonal functions commute with the number operators
    for a, ap in zip(csr_list(sp.an), csr_list(sp.ap)):
        num = ap @ a
        assert np.linalg.norm((d @ num - num @ d).toarray()) == 0.0
    # zero entries are not stored: the vacuum's shell is 0
    n = sparse_route.diag(sp.shell)
    assert n.nnz == sp.dim - 1 and np.all(n.data != 0)
    assert sparse_route.diag(np.zeros(sp.dim)).nnz == 0
    for bad in (np.nan, np.inf):
        values = np.ones(sp.dim)
        values[k] = bad
        with pytest.raises(ValueError, match="not finite"):
            sparse_route.diag(values)


def test_adjointness_and_grades():
    for stat, cut in ((Statistics.BOSE, 4), (Statistics.FERMI, None)):
        sp = fock.build_space(2, stat, cut)
        for a, ap in zip(csr_list(sp.an), csr_list(sp.ap)):
            assert np.array_equal(ap.toarray(), a.toarray().conj().T)
        assert fock.grade_defect(sp, sp.an, -1) < 1e-13
        assert fock.grade_defect(sp, sp.ap, +1) < 1e-13
        # the grade is measured, not stored: the wrong one shows
        assert fock.grade_defect(sp, sp.an, +1) > 1


@pytest.mark.parametrize("modes,stat,cut", [(2, Statistics.BOSE, 4), (3, Statistics.BOSE, 3),
                                            (3, Statistics.FERMI, None)])
def test_grade_defect_is_the_sparse_definition(modes, stat, cut):
    # the table reads the stored entries of each operator in row order, so
    # the norms are those of the sparse definition to the bit
    sp = fock.build_space(modes, stat, cut)
    rng = np.random.default_rng(modes)
    for table in (sp.an, sp.ap):
        dressed = fock.LadderTable(table.cols,
                                   table.vals * rng.uniform(0.5, 2.0, table.vals.shape))
        for grade in (-1, 0, 1, 2):
            want = max(sparse_route.grade_defect(sp, op, grade) for op in csr_list(dressed))
            assert fock.grade_defect(sp, dressed, grade) == want


def test_ladders_are_stored_read_only():
    sp = fock.build_space(2, Statistics.BOSE, 3)
    for table in (sp.an, sp.ap):
        for arr in table:
            with pytest.raises(ValueError):
                arr[0, 0] = arr[0, 0]
    with pytest.raises(ValueError):
        sp.occ[0, 0] = 1



# ---------------------------------------------------------------------------
# the direct constructions against their definitions
# ---------------------------------------------------------------------------


def same_csr(got, want):
    """Equal stored entries, in the same order, row by row."""
    return (got.shape == want.shape and np.array_equal(got.indptr, want.indptr)
            and np.array_equal(got.indices, want.indices)
            and np.array_equal(got.data, want.data))


def test_eye_kron_is_kron_with_the_identity():
    rng = np.random.default_rng(3)
    x = sparse.random_array((5, 7), density=0.3, rng=rng, format="csr") * (1 + 2j)
    x = sparse.csr_array(x)
    x.data[::3] = 0.0  # explicit zeros are copied
    empty_rows = sparse.csr_array(np.diag([1.0, 0.0, 2.0, 0.0])[:, ::-1])
    # a non-canonical x: unsorted columns in a row and a duplicate entry
    unsorted = sparse.csr_array((np.array([1.0, 2.0, 3.0, 4.0]), np.array([2, 0, 1, 1]),
                                 np.array([0, 2, 2, 4])), shape=(3, 3))
    assert not unsorted.has_canonical_format
    for n in (1, 3):
        for op in (x, empty_rows, unsorted):
            got = sparse_route.eye_kron(n, op)
            want = sparse.kron(sparse.eye_array(n), op, format="csr")
            assert got.shape == want.shape
            assert np.array_equal(got.toarray(), want.toarray())
        # each copy keeps the stored order of x, which a product sums in
        assert same_csr(sparse_route.eye_kron(n, x),
                        sparse.kron(sparse.eye_array(n), x, format="csr"))


def test_kron_eye_is_kron_of_the_numeric_matrix():
    rng = np.random.default_rng(4)
    r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    r[rng.random((4, 4)) < 0.4] = 0.0
    r[2] = 0.0  # an empty row of R: D empty rows of R (x) 1_D
    for d in (1, 5):
        assert same_csr(sparse_route.kron_eye(r, d),
                        sparse.kron(r, sparse.eye_array(d), format="csr").astype(complex))
    assert sparse_route.kron_eye(np.zeros((3, 3)), 4).nnz == 0


def test_diag_is_diags_array():
    values = np.array([0.0, 1.5, -2.0, 0.0, 3.0 + 1.0j, 0.0])
    assert same_csr(sparse_route.diag(values),
                    sparse.diags_array(values, format="csr", dtype=complex))


def loop_ladder(space, k, step):
    """The ladder state by state: row t holds its one entry in the column
    of t + step e_k, when that state exists."""
    fermi = space.statistics is Statistics.FERMI
    index = {t: c for c, t in enumerate(map(tuple, space.occ.tolist()))}
    indptr, indices, vals = [0], [], []
    for t in index:
        other = t[:k] + (t[k] + step,) + t[k + 1:]
        col = index.get(other)
        if col is not None:
            indices.append(col)
            vals.append((-1.0) ** sum(t[:k]) if fermi else math.sqrt(max(t[k], other[k])))
        indptr.append(len(indices))
    return sparse.csr_array((np.array(vals, dtype=complex), indices, indptr),
                            shape=(space.dim, space.dim))


@pytest.mark.parametrize("modes,stat,cut", [
    (1, Statistics.BOSE, 5), (2, Statistics.BOSE, 1), (2, Statistics.BOSE, 6),
    (3, Statistics.BOSE, 4), (4, Statistics.BOSE, 3),
    (1, Statistics.FERMI, None), (2, Statistics.FERMI, None), (4, Statistics.FERMI, None),
])
def test_ladders_are_the_per_state_loop(modes, stat, cut):
    sp = fock.build_space(modes, stat, cut)
    for k, (a, ap) in enumerate(zip(csr_list(sp.an), csr_list(sp.ap))):
        assert same_csr(a, loop_ladder(sp, k, +1))
        assert same_csr(ap, loop_ladder(sp, k, -1))
    # a row with no entry, and the sink row, hold column D and value 0
    for table in (sp.an, sp.ap):
        assert table.cols.shape == table.vals.shape == (modes, sp.dim + 1)
        assert (table.vals[table.cols == sp.dim] == 0).all()
        assert (table.cols[:, sp.dim] == sp.dim).all()


@pytest.mark.parametrize("modes,stat,cut", [
    (1, Statistics.BOSE, 5), (2, Statistics.BOSE, 1), (3, Statistics.BOSE, 4),
    (4, Statistics.BOSE, 3), (1, Statistics.FERMI, None), (3, Statistics.FERMI, None),
])
def test_column_and_row_are_the_stacked_csr_ladders(modes, stat, cut):
    # the CSR ladders of the package before the tables, stacked by scipy,
    # stored entry for entry in the same order
    sp = fock.build_space(modes, stat, cut)
    fermi = stat is Statistics.FERMI
    steps = fock._unit_steps(sp.occ, sp.cutoff)
    old = {"an": [sparse_route._ladder(sp.occ, steps[1, k], fermi, k, +1) for k in range(modes)],
           "ap": [sparse_route._ladder(sp.occ, steps[0, k], fermi, k, -1) for k in range(modes)]}
    for name, ops in old.items():
        table = getattr(sp, name)
        assert same_csr(sparse_route.column(table), sparse.vstack(ops, format="csr"))
        assert same_csr(sparse_route.row(table), sparse.hstack(ops, format="csr"))
        # an entry dressed to 0 stays stored, as in a scaled CSR array
        zeroed = fock.LadderTable(table.cols, 0 * table.vals)
        assert (sparse_route.column(zeroed).nnz == sparse_route.row(zeroed).nnz
                == sparse_route.column(table).nnz)


@pytest.mark.parametrize("modes,cutoff", [(2, 12), (3, 10), (4, 7), (5, 3), (6, 10), (1, 1)])
def test_bose_basis_is_the_filtered_enumeration(modes, cutoff):
    # only the states that exist are built, in the order of the sorted
    # enumeration of all (cutoff + 1)^N tuples
    old = tuple(sorted(t for t in itertools.product(range(cutoff + 1), repeat=modes)
                       if sum(t) <= cutoff))
    new = fock._bose_basis(modes, cutoff)
    assert list(map(tuple, new.tolist())) == list(old)
    assert new.dtype == int


@pytest.mark.parametrize("modes,stat,cut", [(1, Statistics.BOSE, 4), (3, Statistics.BOSE, 4),
                                            (4, Statistics.BOSE, 3), (3, Statistics.FERMI, None)])
def test_shift_targets_are_the_state_lookup(modes, stat, cut):
    sp = fock.build_space(modes, stat, cut)
    shifts = np.array(list(itertools.product(range(-2, 3), repeat=modes)))
    targets = sp.shift_targets(shifts)
    assert targets.shape == (len(shifts), sp.dim)
    index = {t: c for c, t in enumerate(map(tuple, sp.occ.tolist()))}
    for v, row in zip(shifts, targets):
        want = [index.get(tuple(np.add(t, v).tolist()), sp.dim) for t in index]
        assert row.tolist() == want
