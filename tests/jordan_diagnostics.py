"""O(N^3) diagnostics of a Jordan decomposition, kept as test references.

`spectral.jordan_decompose` keeps the similarity matrix as exact reduced
pairs in permuted-triangular form and the closed-form inverses of its two
diagonal blocks; propagation applies the inverse by block substitution and
never forms it.  These helpers form it, and the dense similarity matrices,
with `Fraction` arithmetic, so that the tests can check the closed forms
against the defining identities.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from dicke.precision import fraction_to_float
from dicke.spectral import JordanDecomposition, _h_ext


def _fractions(rows) -> list[list[Fraction]]:
    return [[Fraction(*x) for x in row] for row in rows]


def _matmul(a, b) -> list[list[Fraction]]:
    """Exact product of two matrices of rationals given as row lists.

    A zero a[i][k] skips row k of b before the inner loop and zero entries
    of b are skipped inside it, so triangular and sparse factors are cheap.
    """
    cols = len(b[0]) if b else 0
    out = []
    for ai in a:
        row = [Fraction(0)] * cols
        for aik, bk in zip(ai, b):
            if not aik:
                continue
            for c, bkc in enumerate(bk):
                if bkc:
                    row[c] = row[c] + aik * bkc
        out.append(row)
    return out


def tilde_inv(decomp: JordanDecomposition) -> list[list[Fraction]]:
    """[[T11^-1, 0], [-T22^-1 T21 T11^-1, T22^-1]] as `Fraction`s."""
    nw = len(decomp.t11_inv)
    t11_inv, t22_inv = _fractions(decomp.t11_inv), _fractions(decomp.t22_inv)
    lower_left = _matmul(_matmul(t22_inv, _fractions(row[:nw] for row in decomp.tilde[nw:])),
                         t11_inv)
    return [row + [Fraction(0)] * len(t22_inv) for row in t11_inv] \
        + [[-x for x in left] + right for left, right in zip(lower_left, t22_inv)]


def similarity(decomp: JordanDecomposition) -> np.ndarray:
    """Paper-ordered T as float64."""
    dim = decomp.n_emitters + 1
    out = np.zeros((dim, dim))
    for c in range(dim):
        k = decomp.permutation[c]
        for i in range(dim):
            out[i, c] = fraction_to_float(*decomp.tilde[i][k])
    return out


def similarity_inverse(decomp: JordanDecomposition) -> np.ndarray:
    """Paper-ordered T^-1 as float64."""
    dim = decomp.n_emitters + 1
    inverse = tilde_inv(decomp)
    out = np.zeros((dim, dim))
    for r in range(dim):
        k = decomp.permutation[r]
        for i in range(dim):
            value = inverse[k][i]
            out[r, i] = fraction_to_float(value.numerator, value.denominator)
    return out


def reconstruction_defect(decomp: JordanDecomposition) -> float:
    """max-entry error of rebuilding H from the decomposition.  Exact
    entries give an identically zero defect."""
    dim = decomp.n_emitters + 1
    h = _h_ext(decomp.ladder)

    tilde = _fractions(decomp.tilde)
    # J in tilde ordering: diagonal eigenvalues plus a 1 coupling w -> v
    jcol_diag = [0] * dim
    couple = {}
    for kv, kw, lam in decomp.pair_positions:
        jcol_diag[kv] = jcol_diag[kv] + lam
        jcol_diag[kw] = jcol_diag[kw] + lam
        couple[kw] = kv
    for k, lam in decomp.single_positions:
        jcol_diag[k] = jcol_diag[k] + lam

    tj = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for k in range(dim):
            val = tilde[i][k] * jcol_diag[k]
            if k in couple:
                val = val + tilde[i][couple[k]]
            tj[i][k] = val
    rebuilt = _matmul(tj, tilde_inv(decomp))

    worst = 0.0
    for i in range(dim):
        for c in range(dim):
            m_row = decomp.n_emitters - i
            expected = 0
            if i == c:
                expected = -h[m_row]
            elif i == c + 1:
                expected = h[decomp.n_emitters - c]
            diff = rebuilt[i][c] - expected
            worst = max(worst, abs(fraction_to_float(diff.numerator, diff.denominator)))
    return worst
