"""The ladder-table route of the dressed-ladder checks against the sparse
route it replaced (tests/sparse_route.py), row by row and bit for bit,
and the guards of the tables."""

import ast
import inspect
import textwrap

import numpy as np
import pytest
from scipy import sparse

import sparse_route
from qheis import braid, deform, fock, liealg, verify
from qheis.fock import Statistics
from qheis.qspecial import CLIFFORD, WEYL, DeformParams, qnum

QS = (0.5, 0.7, 1.3, 2.0)


def derived(space, q):
    """The map that candidate qR of the sl(N) relations at q derives on
    the space, with the sign its statistics take."""
    sign = CLIFFORD if space.statistics is Statistics.FERMI else WEYL
    return deform.derive_map(space, braid.build_relations("sl", space.modes, q, sign), "qR")


def random_map(space, params, rng):
    """Random positive dressings: no relation holds, so every defect is
    compared at full size."""
    def d():
        return rng.uniform(0.5, 2.0, (space.modes, space.dim))
    return deform.DeformedGenerators(space, params, deform._dressed(space.an, right=d()),
                                     deform._dressed(space.ap, left=d()))


def both_routes(gens, rel, data):
    """(ladder route, sparse route) pairs of every row of the four checks."""
    pairs = list(zip(verify.dcr_residuals(gens, rel), sparse_route.dcr_residuals(gens, rel)))
    pairs += zip(verify.number_op_check(gens), sparse_route.number_op_check(gens))
    pairs += zip(verify.invariant_commutant_check(gens, data),
                 sparse_route.invariant_commutant_check(gens, data))
    herm = [deform.hermiticity_residual(gens), sparse_route.hermiticity_residual(gens)]
    pairs.append(tuple(verify.CaseResult("hermiticity", h, 1.0) for h in herm))
    return pairs


@pytest.mark.parametrize("stat", [Statistics.BOSE, Statistics.FERMI], ids=["weyl", "clifford"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_ladder_route_is_the_sparse_route_bit_for_bit(n, stat):
    sign = WEYL if stat is Statistics.BOSE else CLIFFORD
    space = fock.build_space(n, stat, {2: 8, 3: 6, 4: 5}[n])
    data = liealg.LieData("sl", n)
    rng = np.random.default_rng(n)
    compared = 0
    for q in QS:
        params = DeformParams(q, sign)
        rel = braid.build_relations("sl", n, q, sign)
        # the map of qR_inv fails its relations, some at order one
        for gens in (deform.derive_map(space, rel, "qR"), deform.derive_map(space, rel, "qR_inv"),
                     random_map(space, params, rng)):
            for new, old in both_routes(gens, rel, data):
                assert new.name == old.name
                assert (new.residual, new.metadata) == (old.residual, old.metadata), new.name
                compared += new.residual > 0.1
    assert compared > 0  # some rows are compared far from the floor


@pytest.mark.parametrize("n", [3, 4])
def test_so_commutant_is_refused(n):
    # an so(N) basis element moves each state by two shifts, so its
    # commutant defect is not one weighted shift
    space = fock.build_space(n, Statistics.BOSE, 5)
    gens = deform.classical_generators(space, DeformParams(1.0, WEYL))
    with pytest.raises(ValueError, match="sl\\(N\\) data"):
        verify.invariant_commutant_check(gens, liealg.LieData("so", n))


def test_number_operator_is_the_sparse_product():
    space = fock.build_space(3, Statistics.BOSE, 5)
    gens = random_map(space, DeformParams(1.3, WEYL), np.random.default_rng(1))
    nh = gens.number_diagonal()
    old = sparse_route.number_operator(gens)
    assert np.array_equal(nh[:-1], old.diagonal())
    assert old.count_nonzero() == np.count_nonzero(old.diagonal())
    assert nh[-1] == 0  # the sink


def test_ladder_tables_are_the_csr_entries():
    # the tables of a generator set store the entries of the sparse
    # products a^i diag(d_i) and diag(d_i) a+_i, and nothing else; the
    # derived d_i is sqrt((n_i)_{q^2}/n_i) q^(sum_{j>i} n_j), to rounding
    space = fock.build_space(3, Statistics.BOSE, 4)
    gens = derived(space, 1.3)
    occ, d = space.occ, space.dim
    root = np.sqrt([qnum(n, 1.3**2).real / n if n else 1.0 for n in range(space.cutoff + 1)])
    for k, (a, ap, a0, ap0) in enumerate(zip(*map(sparse_route.csr_list, (
            gens.a, gens.ap, space.an, space.ap)))):
        dress = sparse_route.diag(root[occ[:, k]] * 1.3 ** occ[:, k + 1:].sum(axis=1))
        for got, want in ((a, a0 @ dress), (ap, dress @ ap0)):
            assert got.nnz == want.nnz
            assert np.array_equal(got.indices, want.indices)
            assert np.allclose(got.data, want.data, rtol=1e-14, atol=0)
    for table in (gens.a, gens.ap):
        assert table.cols.shape == table.vals.shape == (3, d + 1)
        assert (table.cols[:, d] == d).all() and (table.vals[:, d] == 0).all()
        assert (table.vals[table.cols == d] == 0).all()


def test_dressed_is_the_scaled_csr():
    # diag(left) X diag(right), scaled entry by entry: left, then right
    space = fock.build_space(3, Statistics.BOSE, 4)
    rng = np.random.default_rng(2)
    left, right = rng.uniform(0.5, 2.0, (2, 3, space.dim))
    for table in (space.an, space.ap):
        got = sparse_route.csr_list(deform._dressed(table, left, right))
        for k, op in enumerate(sparse_route.csr_list(table)):
            rows = np.repeat(np.arange(space.dim), np.diff(op.indptr))
            want = left[k][rows] * op.data * right[k][op.indices]
            assert np.array_equal(got[k].data, want)
            assert np.array_equal(got[k].indices, op.indices)
    # one dressing for every mode broadcasts
    same = deform._dressed(space.an, left[0])
    assert np.array_equal(same.vals, deform._dressed(space.an, np.tile(left[0], (3, 1))).vals)


def test_generators_must_be_on_the_space_ladders():
    space = fock.build_space(2, Statistics.BOSE, 5)
    params = DeformParams(1.3, WEYL)
    gens = derived(space, 1.3)
    assert gens.a.cols is space.an.cols and gens.ap.cols is space.ap.cols
    # a+_1 in place of the annihilators: one entry per row, off their shift
    with pytest.raises(ValueError, match="annihilator table is not on the columns"):
        deform.DeformedGenerators(space, params, gens.ap, gens.ap)
    # equal columns that are not the space's own arrays
    copied = fock.LadderTable(space.ap.cols.copy(), gens.ap.vals)
    with pytest.raises(ValueError, match="creator table is not on the columns"):
        deform.DeformedGenerators(space, params, gens.a, copied)
    # the tables of another space of the same shape, built apart from the
    # shared one
    other = fock._new_space(2, Statistics.BOSE, 5)
    assert other == space and other is not space
    with pytest.raises(ValueError, match="not on the columns"):
        deform.DeformedGenerators(space, params, other.an, other.ap)
    # values that do not fit the columns
    short = fock.LadderTable(space.an.cols, gens.a.vals[:, :-1])
    with pytest.raises(ValueError, match="not on the columns"):
        deform.DeformedGenerators(space, params, short, gens.ap)


def test_relations_coupling_different_weights_are_rejected():
    space = fock.build_space(2, Statistics.BOSE, 5)
    gens = derived(space, 1.3)
    rel = braid.build_relations("sl", 2, 1.3, WEYL)
    a, ap = gens.a, gens.ap
    pi = rel.annihilating_projector
    with pytest.raises(ValueError, match="different weight"):
        coupled = pi.copy()
        coupled[0, 3] = 0.5  # pair (1, 1) with pair (2, 2)
        verify.quadratic_residual_matrices(a, ap, coupled, rel.cross_candidates, rel.sign)
    with pytest.raises(ValueError, match="different weight"):
        cross = dict(rel.cross_candidates)
        cross["qR"] = cross["qR"] + 0.5 * np.eye(4)[::-1]
        verify.quadratic_residual_matrices(a, ap, pi, cross, rel.sign)


def test_delta_term_targets_the_row_where_the_creator_leaves_the_space():
    # the delta of the cross relation sits on the diagonal of every state,
    # also where A+_j finds the mode occupied and A^i A+_j has no entry; a
    # target read off that product path drops it, and the Clifford control
    # at q = 1.3 would read 0.408 in place of 0.650
    space = fock.build_space(2, Statistics.FERMI)
    gens = derived(space, 1.3)
    rel = braid.build_relations("sl", 2, 1.3, CLIFFORD)
    rows = {r.name: r.residual for r in verify.dcr_residuals(gens, rel)}
    old = {r.name: r.residual for r in sparse_route.dcr_residuals(gens, rel)}
    assert rows == old
    assert rows["dcr_cross[qR]"] < 1e-15
    assert abs(rows["dcr_cross[qR_inv]"] - 0.6498722033542244) < 1e-15


@pytest.mark.parametrize("cutoff", [4, 12, 20, 24])
def test_generator_distance_is_the_sparse_norm_bit_for_bit(cutoff):
    # the distance between two dressed-ladder sets, as sl2-bose reads it
    # (the alpha row and the classical-limit scaling), by shift_norm and by
    # the exact norm of the stacked CSR differences
    space = fock.build_space(2, Statistics.BOSE, cutoff)
    for q in (0.7, 1.3):
        params = DeformParams(q, WEYL)
        pairs = [(deform.inner_automorphism(derived(space, q),
                                            deform.sl2_alpha_intertwiner(space, params))[0],
                  deform.sl2_bose_onesided_map(space, params)),
                 (derived(space, q),
                  deform.classical_generators(space, DeformParams(1.0, WEYL)))]
        for g1, g0 in pairs:
            old = sparse_route.projected_norms(space, sparse.vstack(
                [sparse_route.column(g1.a) - sparse_route.column(g0.a),
                 sparse_route.column(g1.ap) - sparse_route.column(g0.ap)]), 0)
            assert verify.generator_distance(g1, g0) == old > 0


ROUTE = (verify.shift_norm, verify.generator_distance, verify._pair_entries, fock._sum_rows,
         verify.quadratic_residual_matrices, verify.dcr_residuals, verify.number_op_check,
         verify.invariant_commutant_check, liealg.sigma_entries, deform.hermiticity_residual,
         deform.DeformedGenerators.number_diagonal, deform._dressed,
         fock.FockSpace.shift_targets, fock._unit_steps)
BLAS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "kron", "outer", "solve",
        "svd", "eigh", "inv"}


def test_the_route_makes_no_blas_call():
    # a dense contraction such as R @ aa (16 x 16 times 16 x 331) wakes
    # OpenBLAS's worker thread and raises the CPU time of a pass although
    # its wall time falls: the route gathers and adds entrywise only
    found = []
    for fn in ROUTE:
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{fn.__qualname__}: @")
            if isinstance(node, ast.Attribute) and node.attr in BLAS:
                found.append(f"{fn.__qualname__}: {node.attr}")
    assert not found, found
