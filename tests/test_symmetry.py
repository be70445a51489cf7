"""Symmetry oracles: a report table depends on a colligation and its points only as the mathematics allows.

Three exact symmetries of the model map a colligation and its points to another pair whose reports are
the same up to rounding:

* state similarity: A -> V_K A V_H*, B -> V_K B, C -> C V_H*, with V unitary and E_j V_K = V_H E_j for
  every j (block-diagonal on the polydisk, one fiber unitary in every copy on the ball).  Every resolvent,
  L and K is conjugated by V, so every report is unchanged;
* input and output unitaries: B -> B Q, C -> P C, D -> P D Q, so phi -> P phi Q.  Every report is unchanged;
* coordinate permutation: new coordinate j is old coordinate p[j], by a permutation S of the state space
  that carries old block (ball copy) p[j] to new block j: A -> S A S*, B -> S B, C -> C S* on the polydisk,
  whose blocks are permuted too, and A -> S A, B -> S B on the ball.  Then phi'(z[p]) = phi(z), so each
  report that depends on phi alone (a ``VARIANTS`` tag) at (z, alpha) is the one at (z[p], alpha[p]).

The two computations round apart.  The defect D (1 - |phi|^2 for scalar phi, else the product of the two
defect norms) is a difference of values of size up to one, so it carries an absolute error of a few eps and a
relative error of about eps / D, which every right-hand side that scales with it inherits.  A left-hand side
(a derivative, resolvent or K norm) is formed from products of the size of its report's larger side, so its
error is relative to that side, not to itself: a small high-order partial can lose digits.  So every lhs and
rhs at point i may move by ``TOLERANCE * max(|lhs|, |rhs|) / D_i``, D_i that point's defect.
"""

import numpy as np
import pytest

from aglerlab import Colligation, MultiIndex, Polydisk, evaluate, random_colligation
from aglerlab.bounds import VARIANTS, report_columns
from aglerlab.harness import multi_indices
from aglerlab.matrixcore import haar_unitary
from conftest import MIXED_STRUCTURES, admissible_point

TOLERANCE = 128 * np.finfo(float).eps  # 2.8e-14: relative to the larger side of a report, at a defect of one
FUNCTION_TAGS = {v.tag for v in VARIANTS}  # the tags whose reports depend on phi alone
MAX_ORDER = 4


def _block_diagonal(blocks) -> np.ndarray:
    out, k = np.zeros((sum(map(len, blocks)),) * 2, dtype=complex), 0
    for block in blocks:
        out[k:k + len(block), k:k + len(block)] = block
        k += len(block)
    return out


def state_similarity(col: Colligation, seed: int) -> Colligation:
    s = col.structure
    if isinstance(s, Polydisk):
        v_h = v_k = _block_diagonal([haar_unitary(b, seed + j) for j, b in enumerate(s.block_dims) if b])
    else:
        v_h = haar_unitary(s.fiber_dim, seed)
        v_k = np.kron(np.eye(s.d), v_h)
    return Colligation(s, v_k @ col.A @ v_h.conj().T, v_k @ col.B, col.C @ v_h.conj().T, col.D)


def io_unitaries(col: Colligation, seed: int) -> Colligation:
    p, q = haar_unitary(col.dim_g, seed), haar_unitary(col.dim_f, seed + 1)
    return Colligation(col.structure, col.A, col.B @ q, p @ col.C, p @ col.D @ q)


def permuted(col: Colligation, p) -> Colligation:
    s = col.structure
    sizes = s.block_dims if isinstance(s, Polydisk) else (s.fiber_dim,) * s.d
    starts = np.cumsum((0,) + tuple(sizes))
    shift = np.eye(s.dim_k)[np.concatenate([np.arange(starts[j], starts[j + 1]) for j in p])]
    if isinstance(s, Polydisk):
        return Colligation(Polydisk(tuple(sizes[j] for j in p)), shift @ col.A @ shift.T, shift @ col.B,
                           col.C @ shift.T, col.D)
    return Colligation(s, shift @ col.A, shift @ col.B, col.C, col.D)


def deviation(moved, table, defect: np.ndarray, old=slice(None), new=slice(None)) -> float:
    """The largest difference between a lhs or rhs of ``table`` (its columns ``old``) and of ``moved`` (its
    columns ``new``), over the larger side of its report and times its point's defect, in units of TOLERANCE."""
    scale = np.maximum(np.abs(table.lhs[:, old]), np.abs(table.rhs[:, old])) / defect[:, None]
    moved_by = np.maximum(np.abs(moved.lhs[:, new] - table.lhs[:, old]), np.abs(moved.rhs[:, new] - table.rhs[:, old]))
    return float((moved_by / (TOLERANCE * scale)).max())


@pytest.mark.parametrize("dim_g", [1, 2])
@pytest.mark.parametrize("structure", MIXED_STRUCTURES, ids=str)
class TestSymmetries:
    @staticmethod
    def base(structure, dim_g):
        rng = np.random.default_rng(200 + 10 * structure.d + dim_g)
        col = random_colligation(structure, dim_g=dim_g, seed=int(rng.integers(2**31)))
        zs = np.array([admissible_point(structure, rng) for _ in range(4)])
        mis = [MultiIndex(a) for a in multi_indices(structure.d, MAX_ORDER)]
        ev = evaluate(col, zs)
        return col, zs, mis, report_columns(ev, mis), ev.defect

    @pytest.mark.parametrize("symmetry", [state_similarity, io_unitaries], ids=["state", "input-output"])
    def test_a_unitary_change_of_realization_keeps_every_report(self, structure, dim_g, symmetry):
        col, zs, mis, table, defect = self.base(structure, dim_g)
        moved = report_columns(evaluate(symmetry(col, 300 + structure.d), zs), mis)
        assert moved.keys == table.keys and moved.own == table.own
        assert deviation(moved, table, defect) <= 1.0

    def test_a_coordinate_permutation_permutes_the_function_reports(self, structure, dim_g):
        col, zs, mis, table, defect = self.base(structure, dim_g)
        p = np.roll(np.arange(structure.d), -1)  # a cycle: not its own inverse for d >= 3
        moved = report_columns(evaluate(permuted(col, p), zs[:, p]), mis)
        at = {key: q for q, key in enumerate(moved.keys)}
        old = [q for q, (tag, _) in enumerate(table.keys) if tag in FUNCTION_TAGS]
        new = [at[tag, tuple(alpha[j] for j in p)] for tag, alpha in (table.keys[q] for q in old)]
        assert old and sorted(new) == [q for q, (tag, _) in enumerate(moved.keys) if tag in FUNCTION_TAGS]
        assert deviation(moved, table, defect, old, new) <= 1.0
