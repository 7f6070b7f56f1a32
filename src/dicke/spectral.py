"""Spectral solvers for the bidiagonal rate generator.

The generator H (top-down ordering, diagonal -h_N..-h_0) has at most
two-fold degenerate eigenvalues because of the ladder symmetry
h_m = h_{N+1-m}.  Each degenerate pair carries a size-2 Jordan block
(a second-order exceptional point), so the propagator picks up
g*t*exp(-h*g*t) pieces on top of plain exponentials.

Everything here uses closed-form entries: eigenvectors, generalized
eigenvectors, the column-permuted lower-triangular similarity matrix and
the block entries of its inverse are explicit products of integer ladder
gaps.  No generic eigensolver, Jordan algorithm or LU inversion is ever
run; candidate vectors are validated exactly against their defining
equations instead of trusting the index windows.  The entries are exact
rationals at every N and in every precision mode, each a reduced
(numerator, denominator) pair of plain ints: a product takes the two cross
gcds and a sum the gcd of the denominators, as `Fraction` arithmetic does,
without building a `Fraction`.  The inverse is applied by block
substitution, never formed, so the build is O(N^2).

Propagation multiplies the decomposition out into the exact per-row
expansion sum_p (A_p + B_p*g*t) * exp(-h_p*g*t) (`jordan_terms`), rounds
each row as a `RoundedRow` under the decomposition's policy
(`jordan_rows`), and sums it with the residue evaluator, so all
closed-form methods share one width decision and one evaluation path:
float64 rows in numpy, wider rows in one integer fixed-point pass.

Each candidate column is checked against its defining equation, row m
reading (h_j - h_m) x_m + h_{m+1} x_{m+1} = y_m (y = 0 for an eigenvector,
y = v for its Jordan partner), by cross-multiplying the integer numerators
and denominators of the three entries: exact, integer products only.

The resolvent (z*1 - H)^{-1} is evaluated from its rational closed form,
and inverting its Laplace representation reproduces the residue expansion
through an independent code path (poles sit at z = -h_p here).  A column
R_{m,m0} is solved by the Laplace transform of the rate equation itself,
(z + h_m) R_{m,m0} = h_{m+1} R_{m+1,m0}, stepped from row m0 down: each
pole carries its gap product and its double-pole sum as plain integers,
each step multiplies one gap into each, and a row reduces each
coefficient it emits by one gcd.  None of the binomial forms of `residues`
is used, and no `Fraction` is built.  `invert_laplace` returns the exact
terms; the caller rounds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .ladder import DickeLadder
from .precision import DOUBLE_BITS, PrecisionPolicy, fraction_to_float, reduced
from .residues import ResidueTerm, RoundedRow, evaluate_rows, rounded_row
from .states import DiagonalState, check_times

Pair = tuple[int, int]   # reduced (numerator, denominator), denominator > 0
_ZERO: Pair = (0, 1)
_ONE: Pair = (1, 1)


def _mul(a: Pair, b: Pair) -> Pair:
    """Product of two reduced pairs, reduced by the two cross gcds."""
    an, ad = a
    bn, bd = b
    g1, g2 = gcd(an, bd), gcd(bn, ad)
    return (an // g1) * (bn // g2), (ad // g2) * (bd // g1)


def _add(a: Pair, b: Pair) -> Pair:
    """Sum of two reduced pairs, reduced through the gcd of the
    denominators (Knuth, TAOCP vol. 2, 4.5.1)."""
    an, ad = a
    bn, bd = b
    g = gcd(ad, bd)
    if g == 1:
        return an * bd + bn * ad, ad * bd
    s = ad // g
    t = an * (bd // g) + bn * s
    g2 = gcd(t, g)
    return t // g2, s * (bd // g2)


def _dot(a: list[Pair], b: list[Pair]) -> Pair:
    """Exact dot product over the common length, zero entries skipped."""
    acc = _ZERO
    for p, q in zip(a, b):
        if p[0] and q[0]:
            acc = _add(acc, _mul(p, q))
    return acc


class SingularityError(ZeroDivisionError):
    """Resolvent evaluated on one of its poles."""


def _h_ext(ladder: DickeLadder) -> list[int]:
    # h_{N+1} = 0 closes the index algebra (same value as h_0)
    return list(ladder.h) + [0]


def _middle_label(n_emitters: int) -> int:
    return (n_emitters + 1) // 2  # ceil(N/2)


def _eigen_labels(n_emitters: int) -> list[int]:
    # N+1-ceil(N/2) is the lone middle label for odd N, the first doubled one for even N
    return list(range(n_emitters + 1 - _middle_label(n_emitters), n_emitters + 2))


def _v_components(h: list[int], n_emitters: int, j: int) -> list[Pair]:
    """Eigenvector of eigenvalue -h_j, physical components m = 0..N.

    Nonzero on m <= N+1-j; the leading component (m = N+1-j) is the empty
    product 1, and each lower m multiplies in h_{mbar-1}/(h_mbar - h_j).
    """
    jbar = n_emitters + 1 - j
    out = [_ZERO] * (n_emitters + 1)
    acc = out[jbar] = _ONE
    for m in range(jbar - 1, -1, -1):
        mbar = n_emitters + 1 - m
        acc = _mul(acc, reduced(h[mbar - 1], h[mbar] - h[j]))
        out[m] = acc
    return out


def _w_components(h: list[int], n_emitters: int, j: int, v: list[Pair]) -> list[Pair]:
    """Generalized eigenvector solving (H + h_j*1) w = v, with v = v^{(j)}.

    For m <= N+1-j the entry is v_m times the running sum
    sum_{i > mbar} 1/(h_i - h_j); above, it runs up from 1/h_{j-1} at
    m = N+2-j, each higher m multiplying in (h_{mbar+1} - h_j)/h_mbar.
    """
    jbar = n_emitters + 1 - j
    out = [_ZERO] * (n_emitters + 1)
    tail = _ZERO
    for m in range(1, jbar + 1):
        tail = _add(tail, reduced(1, h[n_emitters + 2 - m] - h[j]))
        out[m] = _mul(v[m], tail)
    acc = out[jbar + 1] = reduced(1, h[j - 1])
    for m in range(jbar + 2, j + 1):
        mbar = n_emitters + 1 - m
        acc = _mul(acc, reduced(h[mbar + 1] - h[j], h[mbar]))
        out[m] = acc
    return out


def _validate_eigenpair(h, vec, j, generalized_of=None):
    """Check H v = -h_j v, or (H + h_j) w = v for generalized vectors,
    exactly.

    Row m reads (h_j - h_m) x_m + h_{m+1} x_{m+1} = y_m, with x_{N+1} = 0
    and y = 0 or v.  With x_m = a/b and x_{m+1} = c/d it is tested as
    (h_j - h_m)*a*d + h_{m+1}*c*b = 0, or for y_m = e/f as that left side
    times f == e*b*d: integer products only.
    """
    hj = h[j]
    c, d = 0, 1   # x_{N+1}
    for m in range(len(vec) - 1, -1, -1):
        a, b = vec[m]
        lhs = (hj - h[m]) * a * d + h[m + 1] * c * b
        if generalized_of is None:
            ok = lhs == 0
        else:
            e, f = generalized_of[m]
            ok = lhs * f == e * b * d
        if not ok:
            raise ArithmeticError(
                f"closed-form vector for label j={j} fails its defining equation at m={m}")
        c, d = a, b


def eigenvector(ladder: DickeLadder, j: int) -> np.ndarray:
    """Closed-form eigenvector for the eigenvalue label j (j = N+1 is the
    zero mode), in physical ordering, validated against H v = -h_j v."""
    n_emitters = ladder.n_emitters
    if j not in _eigen_labels(n_emitters):
        raise ValueError(f"no eigenvector label j={j} for N={n_emitters}")
    h = _h_ext(ladder)
    vec = _v_components(h, n_emitters, j)
    _validate_eigenpair(h, vec, j)
    return np.array([fraction_to_float(*c) for c in vec])


def generalized_eigenvector(ladder: DickeLadder, j: int) -> np.ndarray:
    """Jordan partner for a doubly degenerate eigenvalue label j."""
    n_emitters = ladder.n_emitters
    n = _middle_label(n_emitters)
    if not (n + 1 <= j <= n_emitters):
        raise ValueError(
            f"label j={j} has no generalized eigenvector for N={n_emitters} "
            f"(degenerate labels are {n + 1}..{n_emitters})")
    h = _h_ext(ladder)
    v = _v_components(h, n_emitters, j)
    vec = _w_components(h, n_emitters, j, v)
    _validate_eigenpair(h, vec, j, generalized_of=v)
    return np.array([fraction_to_float(*c) for c in vec])


@dataclass
class JordanDecomposition:
    """Block structure plus the permuted-triangular similarity data.

    `tilde` is lower triangular in the top-down row ordering (row i is
    state m = N - i); `permutation[c]` gives the tilde column holding the
    c-th column of the paper-ordered similarity matrix T, whose column
    blocks match `blocks`; its diagonal blocks T11 (w columns) and T22 have
    closed-form inverses.  Entries are exact reduced (numerator,
    denominator) pairs at every N and in every mode.  `policy` is the one
    under which `jordan_rows` rounds each propagated row; the per-row widths
    live on those `RoundedRow`s.  `bits` only records the policy's fixed
    width (that of `bits` mode, else 53), which the benchmark tracer reads.
    `_last_rows` keeps the last start's rounded rows for reuse.
    """

    ladder: DickeLadder
    blocks: tuple[tuple[int, int], ...]          # (eigenvalue, size) in T order
    tilde: list[list[Pair]]                      # (N+1) x (N+1), rows top-down
    t11_inv: list[list[Pair]]                    # nw x nw, nw = number of w columns
    t22_inv: list[list[Pair]]                    # (N+1-nw) x (N+1-nw)
    permutation: tuple[int, ...]
    pair_positions: tuple[tuple[int, int, int], ...]   # (tilde col of v, of w, eigenvalue)
    single_positions: tuple[tuple[int, int], ...]      # (tilde col, eigenvalue)
    policy: PrecisionPolicy
    bits: int
    _last_rows: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_emitters(self) -> int:
        return self.ladder.n_emitters

    def apply_inverse(self, x: list[Pair]) -> list[Pair]:
        """tilde^-1 x for a top-down vector of pairs, exactly and in O(N^2),
        by block substitution: c1 = T11^-1 x1, c2 = T22^-1 (x2 - T21 c1)."""
        nw = len(self.t11_inv)
        c1 = [_dot(row, x) for row in self.t11_inv]
        rest = []
        for xi, row in zip(x[nw:], self.tilde[nw:]):
            num, den = _dot(row, c1)
            rest.append(_add(xi, (-num, den)))
        return c1 + [_dot(row, rest) for row in self.t22_inv]


def _t11_inv_row(h, n_emitters, m) -> list[Pair]:
    """Row of the generalized-vector inverse block for label m, columns
    j = N..n+1 in tilde order (n = ceil(N/2)), nonzero for j >= m.

    The diagonal entry is h_m * prod_{n<i<m} (h_i/(h_i - h_m))^2, times
    h_n/(h_n - h_m) for odd N; each larger j multiplies in h_j/(h_j - h_m).
    """
    n = _middle_label(n_emitters)
    acc = (h[m], 1)
    for i in range(n + 1, m):
        ratio = reduced(h[i], h[i] - h[m])
        acc = _mul(_mul(acc, ratio), ratio)
    if n_emitters % 2 == 1:
        acc = _mul(acc, reduced(h[n], h[n] - h[m]))
    row = [_ZERO] * (n_emitters - n)
    row[n_emitters - m] = acc
    for j in range(m + 1, n_emitters + 1):
        acc = _mul(acc, reduced(h[j], h[j] - h[m]))
        row[n_emitters - j] = acc
    return row


def _t22_inv_row(h, n_emitters, m) -> list[Pair]:
    """Row of the eigenvector inverse block for state m, columns over the
    eigenvector labels in ascending order, nonzero for j <= mbar = N+1-m.

    The entry at j = mbar is the empty product 1; each lower j multiplies
    in h_j/(h_j - h_mbar).
    """
    first = n_emitters + 1 - _middle_label(n_emitters)
    mbar = n_emitters + 1 - m
    row = [_ZERO] * (n_emitters + 2 - first)
    acc = row[mbar - first] = _ONE
    for j in range(mbar - 1, first - 1, -1):
        acc = _mul(acc, reduced(h[j], h[j] - h[mbar]))
        row[j - first] = acc
    return row


def jordan_decompose(ladder: DickeLadder,
                     policy: PrecisionPolicy | None = None) -> JordanDecomposition:
    """Assemble the block decomposition from closed-form entries.

    The entries are exact reduced pairs in every mode; the policy only sets the
    width of each propagated row (`jordan_rows`).
    """
    policy = policy or PrecisionPolicy()
    n_emitters = ladder.n_emitters
    n = _middle_label(n_emitters)
    h = _h_ext(ladder)

    tilde, t11_inv, t22_inv, tilde_labels = _build_tilde(h, n_emitters, n)

    # T ordering: [v_n (odd)] then (v_j, w_j) pairs ascending j, then v_{N+1}
    tilde_index = {lab: k for k, lab in enumerate(tilde_labels)}
    t_labels: list[tuple[str, int]] = []
    blocks: list[tuple[int, int]] = []
    pair_positions = []
    single_positions = []
    for j in _eigen_labels(n_emitters):
        if n < j <= n_emitters:
            t_labels += [("v", j), ("w", j)]
            blocks.append((-h[j], 2))
            pair_positions.append((tilde_index[("v", j)], tilde_index[("w", j)], -h[j]))
        else:
            t_labels.append(("v", j))
            blocks.append((-h[j], 1))
            single_positions.append((tilde_index[("v", j)], -h[j]))
    permutation = tuple(tilde_index[lab] for lab in t_labels)

    return JordanDecomposition(
        ladder=ladder, blocks=tuple(blocks), tilde=tilde, t11_inv=t11_inv, t22_inv=t22_inv,
        permutation=permutation, pair_positions=tuple(pair_positions),
        single_positions=tuple(single_positions), policy=policy,
        bits=max(policy.mantissa_bits, DOUBLE_BITS) if policy.mode == "bits" else DOUBLE_BITS)


def _build_tilde(h, n_emitters, n):
    """Columns of the permuted-triangular similarity matrix plus the
    closed-form inverses of its two diagonal blocks.

    Each label's eigenvector is built and validated once; a doubled
    label's Jordan partner is built from it and validated against it.
    """
    dim = n_emitters + 1
    labels = _eigen_labels(n_emitters)
    v_cols, w_cols = [], []
    for j in labels:
        v = _v_components(h, n_emitters, j)
        _validate_eigenpair(h, v, j)
        v_cols.append(v)
        if n < j <= n_emitters:
            w = _w_components(h, n_emitters, j, v)
            _validate_eigenpair(h, w, j, generalized_of=v)
            w_cols.append(w)
    # w columns by descending label, then v columns by ascending label
    tilde_labels = [("w", j) for j in range(n_emitters, n, -1)] + [("v", j) for j in labels]
    columns = w_cols[::-1] + v_cols
    # rows top-down: row i holds physical component m = N - i
    tilde = [[col[n_emitters - i] for col in columns] for i in range(dim)]

    # inverse blocks from the closed forms, same (row, column) conventions
    t11_inv = [_t11_inv_row(h, n_emitters, m) for m in range(n_emitters, n, -1)]
    t22_inv = [_t22_inv_row(h, n_emitters, m) for m in range(n, -1, -1)]
    return tilde, t11_inv, t22_inv, tilde_labels


def jordan_terms(decomp: JordanDecomposition, populations) -> list[list[ResidueTerm]]:
    """Exact per-row expansion of exp(H*g*t) x in the form the residue
    methods use.

    With c = T^{-1} x (exact reduced pairs, by `apply_inverse`), a Jordan
    pair (v, w, l) contributes (T_iv*c_v + T_iw*c_w + T_iv*c_w*g*t) *
    exp(l*g*t) to row i and a single (k, l) contributes T_ik*c_k * exp(l*g*t).  Rows are indexed
    by the physical state m; all-zero terms are dropped, poles are
    ascending, and a row the start does not reach is empty.
    """
    return list(_descending_rows(decomp, populations))[::-1]


def _descending_rows(decomp: JordanDecomposition, populations):
    """The rows of `jordan_terms` one at a time, m = N down to 0, so that a
    caller can round each before the next is made."""
    dim = decomp.n_emitters + 1
    x_td = np.asarray(populations, dtype=float)[::-1]
    if x_td.shape != (dim,):
        raise ValueError(f"initial state has wrong length {x_td.shape}")
    coeff = decomp.apply_inverse([float(v).as_integer_ratio() for v in x_td])
    # blocks the start does not excite contribute nothing to any row
    blocks = sorted([(-lam, kv, kw) for kv, kw, lam in decomp.pair_positions
                     if coeff[kv][0] or coeff[kw][0]]
                    + [(-lam, k, None) for k, lam in decomp.single_positions if coeff[k][0]])
    for row in decomp.tilde:   # top-down: row i holds m = N - i
        terms = []
        for pole, kv, kw in blocks:
            t_v = row[kv]
            if kw is None:
                if t_v[0]:
                    terms.append(ResidueTerm(pole, 1, _mul(t_v, coeff[kv]), _ZERO))
                continue
            t_w = row[kw]
            if not (t_v[0] or t_w[0]):
                continue
            const = _add(_mul(t_v, coeff[kv]), _mul(t_w, coeff[kw]))
            linear = _mul(t_v, coeff[kw])
            if const[0] or linear[0]:
                terms.append(ResidueTerm(pole, 2 if linear[0] else 1, const, linear))
        yield terms


def jordan_rows(decomp: JordanDecomposition, populations) -> list[RoundedRow | None]:
    """`jordan_terms` as evaluation reads them: each nonempty row a
    `RoundedRow` under `decomp.policy`, each empty one None, rounded as it
    is made, so one row's exact terms are alive at a time.  The last
    start's rows are kept on the decomposition, so later propagations of
    that start and its `rows_meta` reuse them; they must not be mutated."""
    x = np.asarray(populations, dtype=float)
    key = (x.shape, x.tobytes())
    if decomp._last_rows is not None and decomp._last_rows[0] == key:
        return decomp._last_rows[1]
    rows = [rounded_row(terms, decomp.policy) if terms else None
            for terms in _descending_rows(decomp, x)][::-1]
    decomp._last_rows = (key, rows)
    return rows


def propagate(decomp: JordanDecomposition, gamma: float, t,
              initial: DiagonalState) -> DiagonalState | np.ndarray:
    """Apply the block-structured exponential: coefficients of singles are
    scaled by exp(l*g*t); a Jordan pair (v, w) mixes as
    (cv + g*t*cw, cw) * exp(l*g*t).  Never a dense matrix exponential; the
    rows from `jordan_rows` are summed by the residue evaluator.

    `t` is one time, giving the state at initial.time + t, or a 1-d grid
    of times, giving the (N+1, |grid|) populations from one evaluation
    pass; a time that is negative or not finite raises `ValueError`.
    """
    times = check_times(t)
    out = evaluate_rows(jordan_rows(decomp, initial.populations), gamma, times.reshape(-1))
    if times.ndim:
        return out
    return DiagonalState(populations=out[:, 0], time=float(initial.time) + float(t))


@dataclass(frozen=True)
class ResolventElement:
    """Structured entry of (z*1 - H)^{-1}: the ladder values whose
    negatives are its poles plus the big-integer path numerator.  Entries
    with m > m' are identically zero (empty pole tuple, zero numerator)."""

    row_m: int
    col_m_prime: int
    poles: tuple[int, ...]
    numerator: int

    def evaluate(self, z: complex) -> complex:
        if not self.poles:
            return 0j
        z = complex(z)
        for h_k in self.poles:
            if z + h_k == 0:
                raise SingularityError(
                    f"z={z} hits the resolvent pole at {-h_k}")
        value = self.numerator / (z + self.poles[0])
        for h_k in self.poles[1:]:
            value /= z + h_k
        return value


def resolvent_matrix_element(ladder: DickeLadder, m: int, m_prime: int) -> ResolventElement:
    n_emitters = ladder.n_emitters
    if not (0 <= m <= n_emitters and 0 <= m_prime <= n_emitters):
        raise ValueError("state labels out of range")
    if m > m_prime:
        return ResolventElement(row_m=m, col_m_prime=m_prime, poles=(), numerator=0)
    numerator = 1
    for k in range(m + 1, m_prime + 1):
        numerator *= ladder.h[k]
    return ResolventElement(row_m=m, col_m_prime=m_prime,
                            poles=tuple(ladder.h[m:m_prime + 1]), numerator=numerator)


def resolvent_element(ladder: DickeLadder, m: int, m_prime: int, z: complex) -> complex:
    """Entry of (z*1 - H)^{-1} in physical labels: nonzero for m <= m',
    a pure rational function with poles at the negated ladder values."""
    return resolvent_matrix_element(ladder, m, m_prime).evaluate(z)


class ResolventColumn:
    """Partial fractions of one resolvent column, stepped a row at a time.

    Row m holds R_{m,m0}(z) = num / prod_{k=m..m0} (z + h_k) with
    num = prod_{k=m+1..m0} h_k, which solves the Laplace-transformed rate
    equation (z + h_m) R_{m,m0} = h_{m+1} R_{m+1,m0} from R_{m0,m0} =
    1/(z + h_m0).  Each distinct value v among h_m..h_m0 is a pole at
    z = -v and keeps, as plain integers, its gap product den = prod (h_k - v)
    over the k with h_k != v and snum = den * sum 1/(h_k - v), the
    logarithmic derivative a double pole's constant needs.  A step down to
    row m multiplies the gap g = h_m - v into every other pole
    (snum <- snum*g + den, den <- den*g); the pole at h_m becomes double if
    its value is already there, and otherwise starts from its gaps to
    h_{m+1}..h_m0.  A column lives for one solve and only moves down.
    """

    def __init__(self, ladder: DickeLadder, initial_m0: int):
        self.ladder = ladder
        self.initial_m0 = initial_m0
        self.row = initial_m0 + 1          # the empty column above the start
        self.numerator = 1
        self._poles: dict[int, list[int]] = {}   # value -> [den, snum, multiplicity]

    def step_to(self, target_m: int) -> None:
        if not 0 <= target_m <= self.row:
            raise ValueError(f"column is at row {self.row}; it cannot step to {target_m}")
        while self.row > target_m:
            self._descend()

    def _descend(self) -> None:
        h, m0 = self.ladder.h, self.initial_m0
        self.row -= 1
        m = self.row
        v_new = h[m]
        if m < m0:
            self.numerator *= h[m + 1]
        for v, pole in self._poles.items():
            if v != v_new:
                g = v_new - v
                pole[1] = pole[1] * g + pole[0]
                pole[0] *= g
        if v_new in self._poles:
            self._poles[v_new][2] = 2
            return
        den, snum = 1, 0
        for k in range(m + 1, m0 + 1):
            g = h[k] - v_new
            snum = snum * g + den
            den *= g
        self._poles[v_new] = [den, snum, 1]

    def terms(self) -> list[ResidueTerm]:
        """Exact terms of the current row, poles ascending, coefficients as
        reduced pairs: num/den for a simple pole, and for a double one the
        residue of e^{z*g*t}/(z + v)^2 times num/den, which is
        (-num*snum/den^2, num/den)."""
        num = self.numerator
        out = []
        for v in sorted(self._poles):
            den, snum, multiplicity = self._poles[v]
            if multiplicity == 1:
                out.append(ResidueTerm(v, 1, reduced(num, den), _ZERO))
            else:
                out.append(ResidueTerm(v, 2, reduced(-num * snum, den * den), reduced(num, den)))
        return out


def invert_laplace(ladder: DickeLadder, target_m: int, initial_m0: int,
                   column: ResolventColumn | None = None) -> list[ResidueTerm]:
    """Residue terms of the resolvent entry R_{m,m0}(z) e^{z*g*t}.

    The poles live at z = -h_p, so the gaps enter with the opposite sign
    from the direct expansion; after collapsing each contour the term list
    must coincide with `residue_terms` exactly.  The row is read off a
    `ResolventColumn` stepped down to m: `column`, when a caller walks the
    rows of one start downwards, else a fresh one stepped from m0.
    """
    n = ladder.n_emitters
    if not (0 <= target_m <= initial_m0 <= n):
        raise ValueError(
            f"need 0 <= target_m <= initial_m0 <= N, got m={target_m}, m0={initial_m0}, N={n}")
    if column is None:
        column = ResolventColumn(ladder, initial_m0)
    elif column.initial_m0 != initial_m0 or column.ladder.h != ladder.h:
        raise ValueError("the column belongs to another ladder or start")
    column.step_to(target_m)
    return column.terms()
