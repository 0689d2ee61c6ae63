"""The sparse operator core: exact direct-sum norms and sparsity guards."""

import numpy as np
import pytest
from scipy import sparse

import sparse_route
from qheis import braid, deform, fock, suites
from qheis.fock import Statistics
from qheis.qspecial import CLIFFORD, WEYL, DeformParams
from sparse_route import csr_list

SPACES = {
    "bose-2-6": (2, Statistics.BOSE, 6),
    "bose-3-5": (3, Statistics.BOSE, 5),
    "bose-4-4": (4, Statistics.BOSE, 4),
    "fermi-3": (3, Statistics.FERMI, None),
}
GRADES = [(-2,), (-1,), (0,), (1,), (2,), (-1, 0, 2), (-2, 1), (-2, -1, 0, 1, 2)]


def random_on(keep, rng):
    """Random complex sparse matrix with its entries where keep is True."""
    rows, cols = np.nonzero(keep)
    vals = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
    return sparse.csr_array((vals, (rows, cols)), shape=keep.shape)


def random_graded(space, grades, rng, density=0.5):
    """Random complex sparse matrix whose entries map shell k to k + g for
    g in grades."""
    shell = space.shell
    allowed = np.isin(shell[:, None] - shell[None, :], grades)
    return random_on(allowed & (rng.random(allowed.shape) < density), rng)


def random_pattern(space, rng, per_row):
    """Random complex sparse matrix with about per_row entries in each row,
    placed with no regard to shells."""
    return random_on(rng.random((space.dim, space.dim)) < per_row / space.dim, rng)


def safe_chain(space, degree, rng):
    """Bidiagonal matrix that joins each safe state to the next one, so
    that its entries form one component over the whole safe subspace."""
    idx = np.flatnonzero(space.safe_mask(degree))
    keep = np.zeros((space.dim, space.dim), dtype=bool)
    keep[idx, idx] = keep[idx[:-1], idx[1:]] = True
    return random_on(keep, rng)


def dense_oracle(space, m, degree):
    """The largest spectral norm over the D x D blocks of m, each
    restricted to the safe states."""
    d, mask = space.dim, space.safe_mask(degree)
    if not mask.any():
        return 0.0
    dense = m.toarray()
    return max(np.linalg.norm(dense[r:r + d, c:c + d][np.ix_(mask, mask)], 2)
               for r in range(0, dense.shape[0], d) for c in range(0, dense.shape[1], d))


def stacks(space, rng):
    """Random graded blocks stacked as a column, a row and a 2 x 3 grid."""
    def block():
        return random_graded(space, (-1, 0, 1), rng)

    return [sparse.vstack([block() for _ in range(3)]),
            sparse.hstack([block() for _ in range(4)]),
            sparse.block_array([[block() for _ in range(3)] for _ in range(2)])]


def repeated_blocks(space, rng):
    """Disjoint random blocks on shuffled rows and columns: many 2 x 3 and
    3 x 2 blocks, mixed shapes and 1 x 1 singletons.  Each block is scaled
    up by its place in the sequence, so that the largest norm of a shape
    is seldom in its first block."""
    shapes = [(2, 3), (3, 2), (1, 1), (2, 3), (3, 2), (4, 1), (1, 1), (3, 3), (1, 2)]
    rows, cols = rng.permutation(space.dim), rng.permutation(space.dim)
    keep = np.zeros((space.dim, space.dim))
    at_r = at_c = 0
    for k in range(space.dim):
        n_r, n_c = shapes[k % len(shapes)]
        if at_r + n_r > space.dim or at_c + n_c > space.dim:
            break
        keep[np.ix_(rows[at_r:at_r + n_r], cols[at_c:at_c + n_c])] = 1.0 + k
        at_r, at_c = at_r + n_r, at_c + n_c
    return sparse.csr_array(random_on(keep > 0, rng).multiply(keep))


def assert_close(got, want):
    assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300), (got, want)


@pytest.mark.parametrize("grades", GRADES, ids=str)
@pytest.mark.parametrize("key", SPACES)
def test_projected_norms_match_dense_oracle(key, grades):
    space = fock.build_space(*SPACES[key])
    rng = np.random.default_rng([ord(ch) for ch in f"{key}{grades}"])
    for degree in (0, 1, 2):
        inputs = [random_graded(space, grades, rng) for _ in range(3)]
        inputs += [random_pattern(space, rng, per_row) for per_row in (1, 3)]
        inputs.append(safe_chain(space, degree, rng))
        inputs += stacks(space, rng)
        inputs += [repeated_blocks(space, rng) for _ in range(2)]
        for m in inputs:
            assert_close(sparse_route.projected_norms(space, m, degree),
                         dense_oracle(space, m, degree))


@pytest.mark.parametrize("key", SPACES)
def test_projected_norms_zero_and_empty(key):
    space = fock.build_space(*SPACES[key])
    d = space.dim
    for degree in (0, 1):
        assert sparse_route.projected_norms(space, sparse.csr_array((d, d), dtype=complex),
                                      degree) == 0.0
    with pytest.raises(ValueError):
        sparse_route.projected_norms(space, sparse.csr_array((2 * d, d + 1), dtype=complex), 0)
    m = random_graded(space, (-1, 0, 1), np.random.default_rng(7))
    assert m.nnz > 0
    above = sparse_route.projected_norms(space, m, space.cutoff + 1)
    if space.statistics is Statistics.BOSE:
        # degree above the cutoff: the safe subspace is empty
        assert above == 0.0
    else:
        # a fermionic space is safe at every degree
        assert above == sparse_route.projected_norms(space, m, 0) > 0.0


def test_norms_leave_a_non_canonical_input_unchanged():
    # row 0 stores columns [2, 0, 1], row 1 a duplicate of column 0
    data = np.array([3.0, 1.0, 2.0, 0.5, 0.25], dtype=complex)
    indices = np.array([2, 0, 1, 0, 0], dtype=np.int32)
    m = sparse.csr_array((data, indices, np.array([0, 3, 5, 5], dtype=np.int32)), shape=(3, 3))
    assert not m.has_canonical_format
    before = m.indices.tobytes(), m.data.tobytes()
    want = np.linalg.norm(m.toarray(), 2)
    space = fock.build_space(1, Statistics.BOSE, 2)
    got = sparse_route.projected_norms(space, m, 0)
    assert abs(got - want) <= 1e-12 * want
    assert (m.indices.tobytes(), m.data.tobytes()) == before


def test_generators_and_defects_are_sparse():
    space = fock.build_space(4, Statistics.BOSE, 7)
    q = 1.3
    rel = braid.build_relations("sl", 4, q, WEYL)
    for candidate in rel.cross_candidates:
        gens = deform.derive_map(space, rel, candidate)
        for table in (gens.a, gens.ap):
            col = sparse_route.column(table)
            assert isinstance(col, sparse.csr_array)
            assert col.nnz <= 4 * space.dim
        ann, cre, cross = dcr_defects(gens, rel)
        defects = [ann, cre, *cross.values()]
        d = space.dim
        assert [m.shape for m in defects] == \
            [(16 * d, d), (d, 16 * d), (4 * d, 4 * d), (4 * d, 4 * d)]
        assert sum(m.shape[0] * m.shape[1] for m in defects) == 4 * 16 * d * d
        assert all(sparse.issparse(m) for m in defects)


def dcr_defects(gens, rel):
    """The stacked defects of the deformed commutation relations, by the
    sparse route (tests/sparse_route.py)."""
    eye_d = sparse.eye_array(gens.space.dim)
    pi = sparse.kron(rel.annihilating_projector, eye_d, format="csr")
    cross = {name: sparse.kron(pt, eye_d, format="csr")
             for name, pt in rel.cross_candidates.items()}
    return sparse_route.quadratic_residual_matrices(csr_list(gens.a), csr_list(gens.ap), pi,
                                                    cross, rel.sign)


def dense_defects(gens, rel):
    """The defect of each relation and pair (i, j), summed entry by entry
    over the relation matrices (module docstring of verify), dense."""
    n, s = gens.n, rel.sign
    a = [m.toarray() for m in csr_list(gens.a)]
    ap = [m.toarray() for m in csr_list(gens.ap)]
    pi, eye = rel.annihilating_projector, np.eye(gens.space.dim)
    pairs = [divmod(k, n) for k in range(n * n)]
    ann = [sum(pi[i * n + j, k * n + l] * (a[l] @ a[k]) for k, l in pairs) for i, j in pairs]
    cre = [sum(pi[k * n + l, i * n + j] * (ap[k] @ ap[l]) for k, l in pairs)
           for i, j in pairs]
    cross = {name: [a[i] @ ap[j] - (i == j) * eye
                    - s * sum(pt[i * n + h, j * n + k] * (ap[h] @ a[k]) for h, k in pairs)
                    for i, j in pairs]
             for name, pt in rel.cross_candidates.items()}
    return ann, cre, cross


def assert_blocks_match(got, want):
    scale = max(np.abs(w).max() for w in want)
    assert scale > 0
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-13 * scale


@pytest.mark.parametrize("sign", [WEYL, CLIFFORD], ids=["weyl", "clifford"])
def test_shared_contraction_matches_dense_reference(sign):
    # random diagonal dressings, so that no relation holds and the defects
    # are compared at their full size
    space = (fock.build_space(3, Statistics.BOSE, 3) if sign == WEYL
             else fock.build_space(3, Statistics.FERMI, None))
    rng = np.random.default_rng(3)

    def dressing():
        return rng.uniform(0.5, 2.0, (space.modes, space.dim))

    gens = deform.DeformedGenerators(space, DeformParams(1.3, sign),
                                     deform._dressed(space.an, right=dressing()),
                                     deform._dressed(space.ap, left=dressing()))
    rel = braid.build_relations("sl", 3, 1.3, sign)
    ann, cre, cross = dcr_defects(gens, rel)
    want_ann, want_cre, want_cross = dense_defects(gens, rel)
    d = space.dim
    at = [slice(b * d, (b + 1) * d) for b in range(9)]
    assert_blocks_match([ann.toarray()[r] for r in at], want_ann)
    assert_blocks_match([cre.toarray()[:, c] for c in at], want_cre)
    assert len(cross) == 2
    for name, m in cross.items():
        grid = [m.toarray()[at[i], at[j]] for i, j in (divmod(k, 3) for k in range(9))]
        assert_blocks_match(grid, want_cross[name])


def test_sln_at_n4_cutoff8(monkeypatch):
    # D = 495: out of reach for the dense engine, four cases all passing.
    # Each defect there is a partial permutation times a diagonal, so every
    # component of its sparsity graph is one entry and no norm needs an SVD.
    svd_calls = []
    real_svd = np.linalg.svd

    def counting(*args, **kwargs):
        svd_calls.append(1)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    report = suites.run_suite(suites.make_config("slN", modes=4, cutoff=8))
    assert len(report.cases) == 4
    assert all(c.passed for c in report.cases), [(c.name, c.residual) for c in report.cases]
    assert not svd_calls
