import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components

import sparse_route
from qheis import fock, soshift
from qheis.fock import Statistics
from qheis.qspecial import WEYL, DeformParams
from sparse_route import csr_list


@pytest.fixture(scope="module")
def orb3():
    return soshift.build_orbital(fock.build_space(3, Statistics.BOSE, 6))


@pytest.fixture(scope="module")
def orb4():
    return soshift.build_orbital(fock.build_space(4, Statistics.BOSE, 6))


def test_spectrum_labels(orb3, orb4):
    # vacuum: l = N/2 - 1; one-particle shell: l = N/2 with multiplicity N
    for orb, n in ((orb3, 3), (orb4, 4)):
        vac = [g for g in orb.spectral_grid if g[0] == 0]
        assert len(vac) == 1
        assert abs(vac[0][1] - (n / 2 - 1)) < 1e-10
        one = [g for g in orb.spectral_grid if g[0] == 1]
        assert len(one) == 1
        assert abs(one[0][1] - n / 2) < 1e-10
        assert one[0][2] == n


def test_l2_commutators(orb3, orb4):
    for orb in (orb3, orb4):
        rows = {r.name: r for r in soshift.l2_commutator_residuals(soshift.StructureOperands(orb))}
        assert rows["l2_commutes_aa"].residual < 1e-12
        assert rows["l2_commutes_apap"].residual < 1e-12
        assert rows["l2_mixed_commutator_a"].residual < 1e-11
        assert rows["l2_mixed_commutator_aplus"].residual < 1e-11


def test_l_is_positive_root(orb3):
    l2 = sparse_route.dense(orb3.l2)
    lmat = sparse_route.dense(orb3.l)
    assert np.linalg.norm(lmat @ lmat - l2, 2) < 1e-10
    evals = np.linalg.eigvalsh(lmat)
    assert evals.min() > -1e-10
    # l commutes with the total number and with l^2
    n = np.diag(orb3.space.shell)
    assert np.linalg.norm(lmat @ n - n @ lmat) < 1e-10
    assert np.linalg.norm(lmat @ l2 - l2 @ lmat) < 1e-9


def _per_shell_reference(space, l2):
    """l and the spectral grid from one dense eigh per total-number shell."""
    d = space.dim
    lmat = np.zeros((d, d), dtype=complex)
    grid = []
    for n_val in sorted(set(space.shell)):
        sel = np.flatnonzero(space.shell == n_val)
        evals, evecs = np.linalg.eigh(l2[np.ix_(sel, sel)])
        lvals = np.sqrt(np.clip(evals, 0.0, None))
        lmat[np.ix_(sel, sel)] = (evecs * lvals) @ evecs.conj().T
        for lv in np.unique(np.round(lvals, 8)):
            grid.append((float(n_val), lv, int(np.sum(np.abs(lvals - lv) < 1e-6))))
    return lmat, grid


def test_l_eigenblocks_are_the_components_of_l2(monkeypatch):
    space = fock.build_space(3, Statistics.BOSE, 10)
    sizes, calls = [], []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape[-1])
        sizes.extend([a.shape[-1]] * a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    orb = soshift.build_orbital(space)
    monkeypatch.undo()
    # one block per (shell, per-mode parity) sector, the shells reach 66
    # states, and one batched eigh per block size
    occ = space.occ
    sectors = {(n, *p) for n, p in zip(space.shell, (occ % 2).tolist())}
    assert len(sizes) == len(sectors) == 40
    assert max(sizes) == 21 and sum(sizes) == space.dim
    assert sorted(calls) == sorted(set(sizes))

    # the sectors are the connected components of the sparsity graph of
    # l^2, and every nonzero entry of l joins two states of one component
    l2, lmat = sparse_route.dense(orb.l2), sparse_route.dense(orb.l)
    label = connected_components(sparse.csr_array(l2), directed=False)[1]
    assert np.unique(label).size == len(sectors)
    row, col = np.nonzero(lmat)
    assert np.array_equal(label[row], label[col])
    parity = occ % 2
    assert np.array_equal(space.shell[row], space.shell[col])
    assert np.array_equal(parity[row], parity[col])

    assert np.linalg.norm(lmat @ lmat - l2, 2) <= 1e-12 * np.linalg.norm(l2, 2)
    ref_l, ref_grid = _per_shell_reference(space, l2)
    assert np.abs(lmat - ref_l).max() <= 1e-12
    assert len(orb.spectral_grid) == len(ref_grid)
    for (n, lv, m), (rn, rl, rm) in zip(orb.spectral_grid, sorted(ref_grid)):
        assert (n, m) == (rn, rm) and abs(lv - rl) < 1e-10


@pytest.mark.parametrize("sign", [+1, -1])
def test_shift_operators(orb3, orb4, sign):
    for orb in (orb3, orb4):
        ops = soshift.StructureOperands(orb)
        rows = {r.name: r for r in soshift.shift_operator_residuals(ops, sign)}
        assert rows[f"shift_orderings_agree[s={sign:+d}]"].residual < 1e-12
        assert rows[f"shift_eigen_relations[s={sign:+d}]"].residual < 1e-10


def test_shift_operators_are_classical(orb3):
    # no deformation parameter enters the construction at all
    down, up = map(sparse_route.dense,
                   soshift.shift_operators(soshift.StructureOperands(orb3), +1))
    d = orb3.space.dim
    assert down.shape == up.shape == (3 * d, d)
    for i in range(3):
        assert sparse_route.grade_defect(orb3.space, down[i * d:(i + 1) * d], -1) < 1e-13
        assert sparse_route.grade_defect(orb3.space, up[i * d:(i + 1) * d], +1) < 1e-13


@pytest.mark.parametrize("sign", [+1, -1])
def test_shift_operator_blocks_are_their_definition(orb3, orb4, sign):
    # block i of the stacked columns is a^i (n + N/2 - 1 + s l) - a+_i (a.a)
    # and a+_i (n + N/2 - 1 + s l) - (a+.a+) a^i, built one mode at a time
    for orb in (orb3, orb4):
        space, d = orb.space, orb.space.dim
        down, up = map(sparse_route.dense,
                       soshift.shift_operators(soshift.StructureOperands(orb), sign))
        lmat, aa, apap = (sparse.csr_array(sparse_route.dense(x))
                          for x in (orb.l, orb.aa, orb.apap))
        shifted = sparse_route.diag(space.shell + space.modes / 2.0 - 1.0) + sign * lmat
        for i, (ai, api) in enumerate(zip(csr_list(space.an), csr_list(space.ap))):
            assert np.array_equal(down[i * d:(i + 1) * d], (ai @ shifted - api @ aa).toarray())
            assert np.array_equal(up[i * d:(i + 1) * d], (api @ shifted - apap @ ai).toarray())


@pytest.mark.parametrize("q", [0.7, 1.3])
def test_y_functional_equations(orb3, orb4, q):
    for orb in (orb3, orb4):
        rows = soshift.verify_y_son(orb, DeformParams(q, WEYL))
        assert len(rows) == 4
        for row in rows:
            assert row.residual <= 1e-10, (row.name, row.residual)
            assert row.metadata["points"] > 0


def _on_grid_by_scan(grid, n, l):
    # the reference: a linear scan of the whole grid
    return any(abs(gn - n) < 1e-6 and abs(gl - l) < 1e-6 for gn, gl, _ in grid)


def test_grid_lookup_matches_linear_scan(orb3, orb4):
    for orb in (orb3, orb4):
        grid = orb.spectral_grid
        by_n = soshift._grid_by_n(grid)
        queries = []
        for gn, gl, _ in grid:
            for dn in (-2, -1, 0, 1, 2):
                for dl in (-1, 0, 1):
                    queries.append((gn + dn, gl + dl))
            for d in (-2e-6, -5e-7, 5e-7, 2e-6):
                queries += [(gn + d, gl), (gn, gl + d), (gn + d, gl + d)]
        found = [soshift._on_grid(by_n, n, l) for n, l in queries]
        assert found == [_on_grid_by_scan(grid, n, l) for n, l in queries]
        assert any(found) and not all(found)


def test_y_equations_classical_reduction(orb3):
    # at q = 1 every y-ratio is 1 and each equation reads s - t = 2
    rows = soshift.verify_y_son(orb3, DeformParams(1.0, WEYL))
    for row in rows:
        assert row.residual < 1e-12


def test_input_validation():
    with pytest.raises(ValueError):
        soshift.build_orbital(fock.build_space(2, Statistics.BOSE, 6))
    with pytest.raises(ValueError):
        soshift.build_orbital(fock.build_space(3, Statistics.FERMI))
    with pytest.raises(ValueError):
        soshift.build_orbital(fock.build_space(3, Statistics.BOSE, 3))
    orb = soshift.build_orbital(fock.build_space(3, Statistics.BOSE, 4))
    with pytest.raises(ValueError):
        soshift.shift_operators(soshift.StructureOperands(orb), 0)


def test_structure_operands_are_built_once(orb3, monkeypatch):
    # the four products of a ladder with a.a or a+.a+ are built once when
    # the checks share their operands, where each check alone builds its
    # own (twelve in all); with the four commutators of l^2 with a.a and
    # a+.a+, eight products or sixteen take a.a or a+.a+; the rows are the
    # same, bit for bit
    factors = []
    product = fock.block_product
    monkeypatch.setattr(fock, "block_product",
                        lambda x, y: factors.append({id(x), id(y)}) or product(x, y))

    def rows(shared):
        factors.clear()
        out = soshift.l2_commutator_residuals(shared())
        for sign in (+1, -1):
            out += soshift.shift_operator_residuals(shared(), sign)
        quadratic = sum(bool(f & {id(orb3.aa), id(orb3.apap)}) for f in factors)
        return [(r.name, r.residual, r.metadata) for r in out], quadratic

    ops = soshift.StructureOperands(orb3)
    once, built = rows(lambda: ops)
    assert built == 8
    assert rows(lambda: soshift.StructureOperands(orb3)) == (once, 16)
