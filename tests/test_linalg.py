import random
import signal
from contextlib import contextmanager
from fractions import Fraction as F
from math import comb, gcd

import pytest

import qzeta.linalg as linalg
from qzeta import (
    NoSolution,
    QLaurent,
    QRational,
    QZetaError,
    solve_linear,
    sparse_int_rank,
    sparse_kernel,
    sym_subspace_dims,
)


def _int_rank(m) -> int:
    """Rank over Q of a dense int/Fraction matrix, by sparse_int_rank on rows cleared of denominators."""
    return sparse_int_rank(linalg._int_row(row) for row in m)[0]


def _laurent_row(entries) -> dict:
    """Sparse QLaurent row proportional to entries over Q(q): denominators cleared by their product.

    A QRational entry becomes its numerator times the exact quotient of the
    product by its own denominator; any other entry is multiplied by it.
    """
    den = QLaurent.one()
    for x in entries:
        if isinstance(x, QRational):
            den = den * x.den
    out = {}
    for c, x in enumerate(entries):
        x = x.num * den.exact_div(x.den) if isinstance(x, QRational) else den * x
        if x:
            out[c] = x
    return out


def _qlaurent_rank(m) -> int:
    """Rank over Q(q) of a dense matrix of QRational, QLaurent and int entries, by sparse_int_rank."""
    return sparse_int_rank(_laurent_row(row) for row in m)[0]


def test_rank_identity():
    assert _int_rank([[1, 0], [0, 1]]) == 2


def test_rank_proportional_rows():
    assert _int_rank([[1, 2], [2, 4]]) == 1


def _fraction_row_reduce_rank(rows):
    """Independent oracle: plain Gaussian elimination over Fractions."""
    m = [[F(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _rank_bareiss(m: list) -> int:
    """Fraction-free elimination; denominators cleared up front."""
    a = []
    for row in m:
        den = 1
        for x in row:
            f = F(x)
            den = den * f.denominator // gcd(den, f.denominator)
        a.append([int(F(x) * den) for x in row])
    rows, cols = len(m), len(m[0]) if m else 0
    rank = 0
    prev = 1
    for c in range(cols):
        sel = None
        for r in range(rank, rows):
            if a[r][c] != 0:
                sel = r
                break
        if sel is None:
            continue
        a[rank], a[sel] = a[sel], a[rank]
        piv = a[rank][c]
        for r in range(rank + 1, rows):
            arc = a[r][c]
            row_r, row_p = a[r], a[rank]
            for k in range(c, cols):
                row_r[k] = (piv * row_r[k] - arc * row_p[k]) // prev
        prev = piv
        rank += 1
        if rank == rows:
            break
    return rank


def _random_rational_matrix(rng, kind):
    """An int or Fraction matrix up to 12 x 12 of the given kind, some rows repeated or combined."""
    if kind == "empty":
        return [[] for _ in range(rng.randrange(3))]
    rows, cols = rng.randrange(1, 13), rng.randrange(1, 13)
    if kind == "zero":
        return [[0] * cols for _ in range(rows)]
    if kind == "tall":
        rows, cols = max(rows, cols), min(rows, cols)
    elif kind == "wide":
        rows, cols = min(rows, cols), max(rows, cols)
    fractions = rng.random() < 0.5
    density = rng.choice([0.3, 0.6, 1.0])

    def scalar():
        return F(rng.randrange(-9, 10), rng.randrange(1, 7)) if fractions else rng.randrange(-9, 10)

    m = [[scalar() if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    for r in range(1, rows):
        if rng.random() < 0.3:
            a, b = rng.randrange(r), rng.randrange(r)
            fa, fb = scalar(), scalar()
            m[r] = [fa * x + fb * y for x, y in zip(m[a], m[b])]
    return m


def test_int_rank_matches_bareiss_and_fraction_oracles():
    rng = random.Random(5084_11)
    deficient = full = 0
    kinds = ("empty", "zero", "square", "tall", "wide", "square")
    for i in range(360):
        m = _random_rational_matrix(rng, kinds[i % len(kinds)])
        rank = _int_rank(m)
        assert rank == _rank_bareiss(m) == _fraction_row_reduce_rank(m), m
        if m and m[0]:
            deficient += 0 < rank < min(len(m), len(m[0]))
            full += rank == min(len(m), len(m[0]))
    assert deficient > 60 and full > 60


def test_flip_symmetrizer_rank():
    # S_2 = id + flip on 2 points: 4x4, rank 3 = C(3, 2)
    flip = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    s2 = [[flip[r][c] + (1 if r == c else 0) for c in range(4)] for r in range(4)]
    assert _fraction_row_reduce_rank(s2) == 3
    assert _int_rank(s2) == 3


def test_rank_permutation_invariance():
    rng = random.Random(3)
    for _ in range(10):
        rows, cols = rng.randrange(2, 6), rng.randrange(2, 6)
        m = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        r = _int_rank(m)
        rp = list(range(rows))
        cp = list(range(cols))
        rng.shuffle(rp)
        rng.shuffle(cp)
        permuted = [[m[rp[i]][cp[j]] for j in range(cols)] for i in range(rows)]
        assert _int_rank(permuted) == r
        assert r == _fraction_row_reduce_rank(m)


def test_rank_fraction_entries():
    assert _int_rank([[F(1, 2), F(1, 3)], [F(3, 2), F(1, 1)]]) == 1   # det = 0
    assert _int_rank([[F(1, 2), F(1, 3)], [F(1, 5), F(1, 1)]]) == 2


def test_rank_q_generic():
    q = QRational.from_laurent(QLaurent({1: 1}))
    one = QRational.one()
    # rows proportional over Q(q)
    m = [[one, q], [q, q * q]]
    assert _qlaurent_rank(m) == 1
    m2 = [[one, q], [q, one]]
    assert _qlaurent_rank(m2) == 2


def _rank_qgeneric(m: list) -> int:
    """Classical elimination with QRational pivots."""
    def lift(x):
        if isinstance(x, QRational):
            return x
        if isinstance(x, QLaurent):
            return QRational.from_laurent(x)
        return QRational.from_scalar(x)

    a = [[lift(x) for x in row] for row in m]
    rows, cols = len(m), len(m[0]) if m else 0
    rank = 0
    for c in range(cols):
        sel = None
        for r in range(rank, rows):
            if not a[r][c].is_zero:
                sel = r
                break
        if sel is None:
            continue
        a[rank], a[sel] = a[sel], a[rank]
        piv = a[rank][c]
        for r in range(rank + 1, rows):
            if a[r][c].is_zero:
                continue
            f = a[r][c] / piv
            for k in range(c, cols):
                a[r][k] = a[r][k] - f * a[rank][k]
        rank += 1
        if rank == rows:
            break
    return rank


def _random_q_entry(rng, lattice):
    """A nonzero QRational with exponents on q^(1/lattice)."""
    def laurent():
        return QLaurent({F(rng.randrange(-2, 3), lattice): rng.choice([-2, -1, 1, 2, F(1, 2)])
                         for _ in range(rng.randrange(1, 3))})

    return QRational(laurent(), laurent())


def _disguise(rng, x: QRational):
    """x as an int or QLaurent where it is one, half the time."""
    if rng.random() < 0.5 or x.den != QLaurent.one():
        return x
    if not x.num:
        return 0
    if set(x.num.support()) == {0} and type(x.num.coeff(0)) is int:
        return x.num.coeff(0)
    return x.num


def _random_q_matrix(rng):
    """Rows of QRational, QLaurent and int entries; some rows are Q(q)-combinations of others."""
    lattice = rng.choice([1, 1, 2])
    rows, cols = rng.randrange(1, 4), rng.randrange(1, 5)
    m = [[_random_q_entry(rng, lattice) if rng.random() < 0.6 else QRational.from_scalar(rng.randrange(-2, 3))
          for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randrange(0, 3)):
        a, b = _random_q_entry(rng, lattice), _random_q_entry(rng, lattice)
        i, k = rng.randrange(len(m)), rng.randrange(len(m))
        m.insert(rng.randrange(len(m) + 1), [a * x + b * y for x, y in zip(m[i], m[k])])
    return [[_disguise(rng, x) for x in row] for row in m]


def test_qlaurent_rank_matches_dense_oracle_on_q_matrices():
    rng = random.Random(7_5084)
    deficient = 0
    for _ in range(160):
        m = _random_q_matrix(rng)
        expected = _rank_qgeneric(m)
        assert _qlaurent_rank(m) == expected, m
        deficient += expected < min(len(m), len(m[0]))
    assert deficient > 40


def _greedy_columns(m, rank) -> list:
    """The columns k of a dense matrix at which the rank of columns 0..k rises, by a dense rank oracle."""
    cols = len(m[0]) if m else 0
    ranks = [rank([row[:k] for row in m]) for k in range(cols + 1)]
    return [k for k in range(cols) if ranks[k + 1] > ranks[k]]


def test_sparse_int_rank_pivots_are_the_greedy_independent_columns():
    rng = random.Random(24_5084)
    kinds = ("empty", "zero", "square", "tall", "wide", "square")
    gaps = 0  # matrices whose pivots are not simply the first rank columns
    for i in range(240):
        m = _random_rational_matrix(rng, kinds[i % len(kinds)])
        rank, _, pivots = sparse_int_rank(linalg._int_row(row) for row in m)
        assert pivots == _greedy_columns(m, _rank_bareiss), m
        gaps += pivots != list(range(rank))
    q = QLaurent({1: 1})
    for _ in range(80):
        m = _random_q_matrix(rng)
        i = rng.randrange(len(m[0]))
        for row in m:  # column i + 1 becomes q times column i: never a pivot
            row.insert(i + 1, q * row[i])
        rank, _, pivots = sparse_int_rank(_laurent_row(row) for row in m)
        assert pivots == _greedy_columns(m, _rank_qgeneric), m
        gaps += pivots != list(range(rank))
    assert gaps > 20


def test_sparse_int_rank_matches_dense_oracle_on_rmatrix_blocks(monkeypatch):
    # the R-matrix blocks of the stacked-constraint oracle, which ranks QLaurent rows with sparse_int_rank
    import test_rmatrix

    blocks = []

    def recording(rows):
        blocks.append(rows)
        return sparse_int_rank(rows)

    monkeypatch.setattr(test_rmatrix, "sparse_int_rank", recording)
    for n in (2, 3):
        for j in range(5):
            test_rmatrix._sym_subspace_dims_stacked(n, j)
    # one block per content multiset of size j = 1..4 (j = 0 returns before any rank)
    assert len(blocks) == sum(comb(n + j - 1, j) for n in (2, 3) for j in range(1, 5))
    for rows in blocks:
        size = 1 + max((c for row in rows for c in row), default=0)
        dense = [[row.get(c, 0) for c in range(size)] for row in rows]
        assert sparse_int_rank(rows)[0] == _rank_qgeneric(dense)


def _check_kernel(m, rank):
    """sparse_kernel on the rows of dense m: len(m) - rank vectors that annihilate m and are independent."""
    rows = [{c: x for c, x in enumerate(row) if x} for row in m]
    kernel = sparse_kernel(rows, len(m[0]) if m else 0)
    assert len(kernel) == len(rows) - rank, m
    assert all(vec and linalg._combine(vec, rows) == {} for vec in kernel), m
    if kernel:
        assert sparse_int_rank(kernel)[0] == len(kernel), m


def test_sparse_kernel_on_random_int_matrices():
    rng = random.Random(19_5084)
    kinds = ("empty", "zero", "square", "tall", "wide", "square")
    nontrivial = 0
    for i in range(300):
        m = _random_rational_matrix(rng, kinds[i % len(kinds)])
        m = [[row.get(c, 0) for c in range(len(m[0]))] for row in map(linalg._int_row, m)]
        rank = _rank_bareiss(m)
        _check_kernel(m, rank)
        nontrivial += 0 < rank < len(m)
    assert nontrivial > 60


def test_sparse_kernel_on_random_q_matrices():
    rng = random.Random(19_7_5084)
    nontrivial = 0
    for _ in range(120):
        rows = [_laurent_row(row) for row in _random_q_matrix(rng)]
        width = 1 + max((c for row in rows for c in row), default=0)
        m = [[row.get(c, 0) for c in range(width)] for row in rows]
        rank = _rank_qgeneric(m)
        _check_kernel(m, rank)
        nontrivial += 0 < rank < len(m)
    assert nontrivial > 40


def _check_intersect_levels(rows, n, one, rank, top):
    """Grow W_1 = V to W_top by _intersect_step with the map M on V (x) V whose rows are ``rows``.

    Returns how many steps kept some but not all candidates.  At each level:
    the step's count is the candidates minus the dense ``rank`` of their
    images under M in the last two slots, the vectors are independent and
    lie in the candidates' span, and M at every adjacent slot pair kills
    each of them.
    """
    nn, width = n * n, len(rows)
    pair_map = [[(k, row[p]) for k, row in enumerate(rows) if p in row] for p in range(nn)]

    def apply(vec, p, size):
        lo = n ** (size - 2 - p)
        out = {}
        for c, v in vec.items():
            for k, e in pair_map[c // lo % nn]:
                col = (c // (lo * nn) * width + k) * lo + c % lo
                out[col] = out.get(col, 0) + v * e
        return {col: v for col, v in out.items() if v}

    def dense(vectors):
        size = 1 + max((c for vec in vectors for c in vec), default=-1)
        return [[vec.get(c, 0) for c in range(size)] for vec in vectors]

    basis, nontrivial = [{x: one} for x in range(n)], 0
    for size in range(2, top + 1):
        candidates = [{c * n + x: v for c, v in b.items()} for b in basis for x in range(n)]
        new = linalg._intersect_step([(basis, range(n))], n, pair_map, width)
        images = [apply(cand, size - 2, size) for cand in candidates]
        assert len(new) == len(candidates) - rank(dense(images)), (rows, size)
        assert sparse_int_rank(candidates + new)[0] == len(candidates), (rows, size)
        assert sparse_int_rank(new)[0] == len(new), (rows, size)
        assert all(apply(vec, p, size) == {} for vec in new for p in range(size - 1)), (rows, size)
        nontrivial += 0 < len(new) < len(candidates)
        basis = new
    return nontrivial


def test_intersect_step_on_random_int_maps():
    rng = random.Random(20_5084)
    kinds = ("empty", "zero", "square", "tall", "wide", "square")
    nontrivial = 0
    for i in range(60):
        m = _random_rational_matrix(rng, kinds[i % len(kinds)])
        rows = [linalg._int_row(row) for row in m]
        nontrivial += _check_intersect_levels(rows, 3, 1, _rank_bareiss, 4)
    assert nontrivial > 80


def test_intersect_step_on_random_q_maps():
    rng = random.Random(20_7_5084)
    nontrivial = 0
    for _ in range(7):
        # a few maps only: the dense QRational oracle is slow past them
        rows = [_laurent_row(row) for row in _random_q_matrix(rng)]
        nontrivial += _check_intersect_levels(rows, 2, QLaurent.one(), _rank_qgeneric, 3)
    assert nontrivial > 10


def test_sparse_kernel_keeps_tags_off_the_pivots():
    # a zero row is its own dependency; a repeated row depends on its first copy
    q = QLaurent({1: 1})
    rows = [{0: 1, 1: 2}, {}, {0: 1, 1: 2}, {1: 3}]
    assert sparse_kernel(rows, 2) == [{1: 1}, {0: -1, 2: 1}]
    # the tag is the ring's one, read off the row: an int over Z, a QLaurent over Q(q)
    assert [type(v) for v in sparse_kernel(rows, 2)[1].values()] == [int, int]
    kernel = sparse_kernel([{0: q}, {0: q * q}], 1)
    assert kernel == [{0: -q, 1: QLaurent.one()}]
    assert [type(v) for v in kernel[0].values()] == [QLaurent, QLaurent]
    assert sparse_kernel([], 3) == []


def test_solve_identity():
    values, free_dim = solve_linear([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 0, 0])
    assert values == [1, 0, 0]
    assert free_dim == 0


def test_solve_underdetermined():
    values, free_dim = solve_linear([[1, 1]], [2])
    assert free_dim == 1
    assert values[0] + values[1] == 2


def test_solve_inconsistent():
    with pytest.raises(NoSolution):
        solve_linear([[1, 1], [1, 1]], [0, 1])


def test_solve_linear_rejects_ragged_rows():
    for rows, rhs in (([[1, 2], [3]], [0, 0]), ([[1], [2, 3]], [0, 0]), ([[1, 0], [0, 1], []], [1, 1, 1])):
        with pytest.raises(ValueError, match="ragged"):
            solve_linear(rows, rhs)
    with pytest.raises(ValueError, match="rhs"):
        solve_linear([[1, 0], [0, 1]], [1])


def _solve_linear_gauss_jordan(m, rhs):
    """Oracle: dense Gauss-Jordan over Fraction, reducing every row for every pivot.

    Returns (values, free_dim) with free variables set to 0, or None if the
    system is inconsistent.
    """
    rows, cols = len(m), len(m[0]) if m else 0
    a = [[F(x) for x in row] + [F(rhs[i])] for i, row in enumerate(m)]
    piv_cols = []
    rank = 0
    for c in range(cols):
        sel = next((r for r in range(rank, rows) if a[r][c] != 0), None)
        if sel is None:
            continue
        a[rank], a[sel] = a[sel], a[rank]
        pv = a[rank][c]
        a[rank] = [x / pv for x in a[rank]]
        for r in range(rows):
            if r != rank and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        piv_cols.append(c)
        rank += 1
    if any(a[r][cols] != 0 for r in range(rank, rows)):
        return None
    values = [F(0)] * cols
    for i, c in enumerate(piv_cols):
        values[c] = a[i][cols]
    return values, cols - rank


def _solve_both_routes(m, rhs):
    expected = _solve_linear_gauss_jordan(m, rhs)
    if expected is None:
        with pytest.raises(NoSolution):
            solve_linear(m, rhs)
        return None
    values, free_dim = solve_linear(m, rhs)
    assert (values, free_dim) == expected
    assert all(type(v) is F for v in values)
    return values, free_dim


def _random_system(rng, rows, cols):
    def entry():
        x = rng.randrange(-4, 5)
        return F(x, rng.randrange(1, 6)) if rng.random() < 0.3 else x

    m = [[entry() if rng.random() < 0.7 else 0 for _ in range(cols)] for _ in range(rows)]
    x = [entry() for _ in range(cols)]
    rhs = [sum(F(a) * b for a, b in zip(row, x)) for row in m]
    kind = rng.randrange(4)
    if kind == 1 and rows > 1:          # duplicated and combined rows
        i, k = rng.sample(range(rows), 2)
        m.append(list(m[i]))
        rhs.append(rhs[i])
        m.append([2 * a - b for a, b in zip(m[i], m[k])])
        rhs.append(2 * rhs[i] - rhs[k])
    elif kind == 2:                     # all-zero row, possibly with a nonzero rhs
        i = rng.randrange(rows + 1)
        m.insert(i, [0] * cols)
        rhs.insert(i, rng.choice([0, 0, 1]))
    if rng.random() < 0.3:              # perturbed rhs: usually inconsistent
        i = rng.randrange(len(rhs))
        rhs[i] += rng.choice([1, F(1, 2)])
    rhs = [v.numerator if v.denominator == 1 else v for v in rhs]
    return m, rhs


def test_solve_linear_matches_gauss_jordan_random():
    rng = random.Random(20100728)
    outcomes = {"unique": 0, "free": 0, "inconsistent": 0}
    for _ in range(1500):
        m, rhs = _random_system(rng, rng.randrange(1, 7), rng.randrange(1, 6))
        sol = _solve_both_routes(m, rhs)
        key = "inconsistent" if sol is None else ("unique" if sol[1] == 0 else "free")
        outcomes[key] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_solve_linear_matches_gauss_jordan_tall():
    # _solve_h's shape: many more equations than unknowns
    rng = random.Random(7)
    m, rhs = _random_system(rng, 120, 20)
    assert _solve_both_routes(m, rhs)[1] == 0
    # last column = first + second: one free variable
    m = [row[:-1] + [F(row[0]) + row[1]] for row in m]
    rhs = [sum(F(a) * b for a, b in zip(row, range(1, 21))) for row in m]
    assert _solve_both_routes(m, rhs)[1] == 1
    rhs[-1] += 1
    assert _solve_both_routes(m, rhs) is None


def test_solve_linear_matches_gauss_jordan_on_fit_systems(monkeypatch):
    # the systems of the deg-h search that fit_gh ran before Berlekamp-Massey
    import test_zeta_engine

    seen = []

    def recording(m, rhs):
        seen.append((m, rhs))
        return solve_linear(m, rhs)

    monkeypatch.setattr(test_zeta_engine, "solve_linear", recording)
    test_zeta_engine._fit_gh_by_search(6)
    assert len(seen) > 5 and max(len(m) for m, _ in seen) >= 100
    results = [_solve_both_routes(m, rhs) for m, rhs in seen]
    assert results[-1] is not None and results[-1][1] == 0
    assert any(r is None for r in results)


def test_sparse_int_rank_matches_dense():
    rng = random.Random(5)
    for _ in range(10):
        rows, cols = rng.randrange(2, 8), rng.randrange(2, 8)
        dense = [[rng.randrange(-3, 4) if rng.random() < 0.5 else 0 for _ in range(cols)]
                 for _ in range(rows)]
        sparse = [{c: v for c, v in enumerate(row) if v} for row in dense]
        rank, kept, _ = sparse_int_rank(sparse)
        assert rank == _rank_bareiss(dense)
        assert len(kept) == rank


def test_sparse_int_rank_on_qlaurent_rows():
    q = QLaurent({1: 1})
    one = QLaurent({0: 1})
    # [[1, q], [q^-1, 1]] has rank 1 over Q(q)
    rows = [{0: one, 1: q}, {0: QLaurent({-1: 1}), 1: one}]
    assert sparse_int_rank(rows) == (1, rows[:1], [0])
    rows2 = [{0: one, 1: q}, {0: q, 1: one}]
    assert sparse_int_rank(rows2) == (2, rows2, [0, 1])


def test_strip_divides_out_the_content():
    q = QLaurent({1: 1})
    # integer rows: the gcd, sign kept; a primitive row is returned as it is
    assert linalg._strip({0: 6, 3: -4, 5: 10}) == {0: 3, 3: -2, 5: 5}
    row = {1: -3, 2: 5}
    assert linalg._strip(row) is row
    # QLaurent rows with Fraction coefficients: least exponent and rational content
    stripped = linalg._strip({0: QLaurent({3: F(-4, 3), 1: F(-2, 9)}), 2: QLaurent({2: 6})})
    assert stripped == {0: QLaurent({2: -6, 0: -1}), 2: QLaurent({1: 27})}
    assert all(type(k) is int for x in stripped.values() for _, k in x.items())
    # half-integer exponents: the least exponent -1/2 is shifted to 0
    stripped = linalg._strip({4: QLaurent({F(1, 2): 2}), 7: QLaurent({F(-1, 2): -4, F(3, 2): 2})})
    assert stripped == {4: q, 7: QLaurent({0: -2, 2: 1})}
    assert all(type(k) is int for x in stripped.values() for k, _ in x.items())
    # a primitive QLaurent row (exponent 0 present, content 1) is returned as it is
    row = {0: QLaurent({0: 2, 1: 3}), 1: q}
    assert linalg._strip(row) is row


def _strip_by_monomial(row):
    """Oracle: a QLaurent row times the one monomial q^-low den / num, entry by entry."""
    low = min(e for x in row.values() for e, _ in x.items())
    coeffs = [F(k) for x in row.values() for _, k in x.items()]
    num = gcd(*(k.numerator for k in coeffs))
    den = 1
    for k in coeffs:
        den = den * k.denominator // gcd(den, k.denominator)
    mono = QLaurent({-low: F(den, num)})
    return {c: x * mono for c, x in row.items()}


def test_strip_matches_the_monomial_product():
    rng = random.Random(20260)
    for _ in range(300):
        half = rng.random() < 0.3
        row = {}
        for c in rng.sample(range(12), rng.randrange(1, 5)):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                e = F(rng.randrange(-6, 7), 2 if half else 1)
                k = F(rng.choice([-1, 1]) * rng.randrange(1, 40), rng.choice([1, 1, 2, 3, 9]))
                terms[e] = k * rng.choice([1, 6, 10])
            row[c] = QLaurent(terms)
        got, ref = linalg._strip(row), _strip_by_monomial(row)
        assert repr(got) == repr(ref), row
        assert all(type(k) is int for x in got.values() for _, k in x.items()), row


def test_sym_subspace_dims_unchanged_under_the_monomial_strip(monkeypatch):
    strip = linalg._strip
    ours = [sym_subspace_dims(n, j) for n in range(2, 5) for j in range(6)]

    def monomial_strip(row):
        return strip(row) if type(next(iter(row.values()))) is int else _strip_by_monomial(row)

    monkeypatch.setattr(linalg, "_strip", monomial_strip)
    assert [sym_subspace_dims(n, j) for n in range(2, 5) for j in range(6)] == ours


def _reduce_by_cross_multiplication(echelon, out):
    """Oracle: the reduction step before in-place steps, cross-multiplying at every pivot."""
    while out:
        p = min(out)
        piv = echelon.get(p)
        if piv is None:
            return out
        a, b = piv[p], out[p]
        new = {c: a * v for c, v in out.items()}
        for c, v in piv.items():
            w = new.get(c, 0) - b * v
            if w:
                new[c] = w
            elif c in new:
                del new[c]
        out = linalg._strip(new) if new else new
    return out


def _both_reductions(rows):
    """(rank, kept, strip calls) of the streaming echelon, by _reduce and by the oracle."""
    out = []
    strip = linalg._strip
    for reduce in (linalg._reduce, _reduce_by_cross_multiplication):
        strips = []

        def counting_strip(row):
            strips.append(len(row))
            return strip(row)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_reduce", reduce)
            mp.setattr(linalg, "_strip", counting_strip)
            rank, kept, _ = sparse_int_rank(rows)
        out.append((rank, kept, len(strips)))
    return out


def _unit_rich_rows(rng, count, cols):
    """Sparse integer rows, mostly +-1, with some sums of earlier rows so the rank falls short."""
    rows = []
    for _ in range(count):
        if rows and rng.random() < 0.3:
            a, b = rng.sample(rows, 2) if len(rows) > 1 else (rows[0], rows[0])
            f = rng.choice([1, -1, 2])
            row = dict(a)
            for c, v in b.items():
                row[c] = row.get(c, 0) + f * v
            rows.append({c: v for c, v in row.items() if v})
        else:
            cs = rng.sample(range(cols), rng.randrange(1, min(cols, 6) + 1))
            rows.append({c: rng.choice([1, 1, -1, -1, 2, -3]) for c in cs})
    return rows


def test_in_place_steps_match_cross_multiplication_on_unit_rich_rows():
    rng = random.Random(1007_5084)
    saved_strips = 0
    for _ in range(200):
        rows = _unit_rich_rows(rng, rng.randrange(2, 30), rng.randrange(2, 16))
        before = [dict(row) for row in rows]
        (rank, kept, strips), (ref_rank, ref_kept, ref_strips) = _both_reductions(rows)
        assert (rank, kept) == (ref_rank, ref_kept), rows
        assert all(any(k is row for row in rows) for k in kept)
        assert rows == before                       # the caller's rows are never mutated
        assert sparse_int_rank(rows)[:2] == (rank, kept)
        saved_strips += ref_strips - strips
    assert saved_strips > 500                       # the in-place branch is taken


def test_in_place_steps_match_cross_multiplication_on_ungraded_ladder_blocks():
    from test_braided import _non_automorphic_set, _UngradedLadder

    from qzeta import transposition_class

    saved_strips = 0
    for x, top in ((transposition_class(4), 5), (_non_automorphic_set(1), 5), (_non_automorphic_set(-1), 5)):
        ladder = _UngradedLadder(x, budget=x.size ** top)
        for j in range(2, top + 1):
            rows = list(ladder.ungraded_candidate_rows(j))
            (rank, kept, strips), (ref_rank, ref_kept, ref_strips) = _both_reductions(rows)
            assert (rank, kept) == (ref_rank, ref_kept), (x.label, j)
            assert ladder.extend() == rank
            assert ladder._basis == kept
            saved_strips += ref_strips - strips
    assert saved_strips > 1000


def test_solve_linear_in_place_steps_match_cross_multiplication(monkeypatch):
    rng = random.Random(28)
    systems = [_random_system(rng, rng.randrange(1, 9), rng.randrange(1, 7)) for _ in range(300)]
    for _ in range(60):
        rows = _unit_rich_rows(rng, rng.randrange(2, 20), rng.randrange(2, 10))
        cols = 1 + max(c for row in rows for c in row)
        m = [[row.get(c, 0) for c in range(cols)] for row in rows]
        x = [rng.randrange(-3, 4) for _ in range(cols)]
        systems.append((m, [sum(a * b for a, b in zip(row, x)) for row in m]))

    def solve(m, rhs):
        try:
            return solve_linear(m, rhs)
        except NoSolution:
            return None

    got = [solve(m, rhs) for m, rhs in systems]
    monkeypatch.setattr(linalg, "_reduce", _reduce_by_cross_multiplication)
    expected = [solve(m, rhs) for m, rhs in systems]
    assert got == expected
    assert sum(r is None for r in got) > 20 and sum(r is not None and r[1] > 0 for r in got) > 20


@contextmanager
def _deadline(seconds):
    """Fail instead of hanging: a wrong in-place step never clears the leading entry."""
    def expire(signum, frame):
        raise TimeoutError(f"reduction ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _random_laurent(rng):
    """A nonzero QLaurent: a unit +-q^e, a non-unit monomial (2q, 1/2 q^(1/2), ...) or a polynomial."""
    e = F(rng.randrange(-4, 5), rng.choice([1, 1, 2]))
    kind = rng.random()
    if kind < 0.45:
        return QLaurent({e: rng.choice([1, -1])})
    if kind < 0.65:
        return QLaurent({e: rng.choice([2, -2, 3, F(1, 2), F(-1, 2)])})
    return QLaurent({e: rng.choice([1, -1, 2]), e + rng.randrange(1, 3): rng.choice([1, -1, F(1, 2), 3])})


def _mixed_laurent_rows(rng, count, cols):
    """Sparse QLaurent rows; some are Q(q)-combinations of earlier rows so the rank falls short."""
    rows = []
    for _ in range(count):
        if len(rows) > 1 and rng.random() < 0.35:
            a, b = rng.sample(rows, 2)
            fa, fb = _random_laurent(rng), _random_laurent(rng)
            row = {c: fa * v for c, v in a.items()}
            for c, v in b.items():
                row[c] = row.get(c, 0) + fb * v
            rows.append({c: v for c, v in row.items() if v})
        else:
            cs = rng.sample(range(cols), rng.randrange(1, min(cols, 4) + 1))
            rows.append({c: _random_laurent(rng) for c in cs})
    return [row for row in rows if row]


def test_laurent_unit_steps_match_cross_multiplication_and_dense_oracle():
    rng = random.Random(2916_5084)
    saved_strips = deficient = dense_checked = 0
    with _deadline(60):
        for _ in range(150):
            cols = rng.randrange(2, 8)
            rows = _mixed_laurent_rows(rng, rng.randrange(2, 12), cols)
            before = [dict(row) for row in rows]
            (rank, _, strips), (ref_rank, _, ref_strips) = _both_reductions(rows)
            assert rank == ref_rank, rows
            assert rows == before                   # the caller's rows are never mutated
            assert sparse_int_rank(rows)[0] == rank
            if len(rows) * cols <= 20:              # the dense QRational oracle is slow beyond that
                dense = [[row.get(c, 0) for c in range(cols)] for row in rows]
                assert rank == _rank_qgeneric(dense), rows
                dense_checked += 1
            saved_strips += ref_strips - strips
            deficient += rank < min(len(rows), cols)
    assert deficient > 30 and dense_checked > 40
    assert saved_strips > 100                       # the unit pivot branch is taken


def test_unit_quotient_is_an_exponent_shift():
    rng = random.Random(6_5084)
    b_values = [QLaurent({F(1, 2): 1}), QLaurent({F(1, 2): F(1, 2), F(-3, 2): -2}), QLaurent({0: 3, 2: F(-1, 3)})]
    b_values += [_random_laurent(rng) for _ in range(40)]
    for e in (0, 3, -2, F(1, 2), F(-1, 2), F(5, 2)):
        for c in (1, -1):
            a = QLaurent({e: c})
            for b in b_values:
                got = linalg._unit_quotient(b, a)
                expected = b * QLaurent({-e: c})
                assert [(k, type(k), v, type(v)) for k, v in got.items()] == \
                    [(k, type(k), v, type(v)) for k, v in expected.items()], (b, a)
    # q^(1/2) / q^(-1/2) = q: the exponent is the int 1
    (k, v), = linalg._unit_quotient(QLaurent({F(1, 2): 1}), QLaurent({F(-1, 2): 1})).items()
    assert (type(k), k, type(v), v) == (int, 1, int, 1)
    for a in (QLaurent({1: 2}), QLaurent({0: F(1, 2)}), QLaurent({0: 1, 1: 1})):
        assert linalg._unit_quotient(QLaurent({0: 1}), a) is None


def test_wrong_unit_quotient_raises_instead_of_hanging(monkeypatch):
    right = linalg._unit_quotient

    def negated(b, a):
        f = right(b, a)
        return None if f is None else -f

    monkeypatch.setattr(linalg, "_unit_quotient", negated)
    q = QLaurent({1: 1})
    rng = random.Random(2916_5084)
    raised = 0
    with _deadline(60):
        with pytest.raises(QZetaError, match="pivot column 0"):
            sparse_int_rank([{0: q, 1: QLaurent.one()}, {0: q * q, 1: q}])
        for _ in range(100):
            rows = _mixed_laurent_rows(rng, rng.randrange(2, 12), rng.randrange(2, 8))
            try:
                sparse_int_rank(rows)
            except QZetaError:
                raised += 1
    assert raised > 30
