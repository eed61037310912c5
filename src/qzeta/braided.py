"""Set-theoretic braidings, braided symmetrizers, and Hilbert series.

A braided set is a finite set with a bijection Psi on ordered pairs obeying
the braid relation.  Conjugacy classes of a finite group braid by
Psi(x, y) = (x y x^-1, x); their linearization carries the sign -1 (the
exterior-type normalization under which the quadratic relations reproduce
the Fomin-Kirillov algebras), while plain flip sets linearize with sign +1
and recover classical symmetric algebras.

The braided symmetrizer S_j on n^j tensor factors is never materialized:
S_j = (S_{j-1} (x) id) P_j with P_j = id + Psi_{j-1} + Psi_{j-1}Psi_{j-2}
+ ... + Psi_{j-1}...Psi_1, so row w n + i of S_j is (row w of S_{j-1}
(x) e_i) P_j, and the rows w n + i over a maximal independent set K_{j-1}
of rows of S_{j-1} span the rows of S_j.  The ladder also keeps a set
L_{j-1} of d_{j-1} independent columns of S_{j-1}.  S_j(Psi) transposed is
S_j(Psi^-1), so the same recursion, run for Psi^-1, says the columns
L_{j-1} x X span the columns of S_j; hence every set P of rows of S_j has
rank S_j[P, L_{j-1} x X] = rank S_j[P, :].  Level j therefore ranks the
square restriction M = S_j[K_{j-1} x X, L_{j-1} x X], of size n d_{j-1},
instead of n d_{j-1} full rows over n^j columns: streaming elimination
keeps a row exactly when it raises the rank of the rows before it, so the
kept rows K_j are the ones the full rows would keep.  Only those d_j rows
are built in full.  The same elimination gives L_j: its echelon is
T M[K_j, :], T invertible, triangular on its d_j pivot columns, so those
columns of M are independent.  The words Psi_{j-1}...Psi_k are applied to
the support of each kept row, and to each column word of M, one positional
braiding step (an n^2-entry offset table) at a time, so no table over the
n^j columns is ever built.  The quadratic variant BS^quad(A) = TA / <ker
S_2> and the braided invariants are joint kernels W_j = (W_{j-1} (x) V) cap
(V^{j-2} (x) ker M), M the contraction against ker S_2 or sign Psi - id:
each level is a kernel on n dim W_{j-1} candidates
(``linalg._intersect_step``), not on n^j columns.

The ladder and the joint kernels run block by block through one level
driver, ``_ProductBlocks.level``.  Column (x_1, ..., x_j) is labelled by the
map sigma_{x_1} o ... o sigma_{x_j} of X, with sigma_x = left[x]; the first
component of the braid relation, sigma_{L(x,y)} sigma_{R(x,y)} = sigma_x
sigma_y, says every braiding keeps the label, so S_j and W_j are
block-diagonal by label.  When every sigma_x is an automorphism of (X, Psi)
(checked once, in O(n^3); true for every conjugacy class), relabelling all
tensor factors by one element g of the group they generate commutes with S_j
and W_j and carries block l to block g l g^-1.  Only the least label of each
such orbit is computed, its dimension counted |orbit| times; the rows and
column words of any other block are its representative's, relabelled.
Otherwise every block is its own orbit, through the same code.  Budgets
still count the n^j columns of a level, not the columns of a block or the
n d_{j-1} of the ladder's restriction.
"""

from __future__ import annotations

import itertools
import json

from .errors import BudgetExceeded
from .qcombinat import t_bracket
from .qlaurent import _as_int
from .qtpoly import QTPoly
from .linalg import _intersect_step, sparse_int_rank

DEFAULT_BUDGET = 100_000


class BraidedSet:
    """Finite set with a braiding table; both invariants verified at construction.

    left[x][y], right[x][y] give Psi(x, y) = (left, right) on 0-based
    indices; sign is the scalar carried by the linearization on C X.
    """

    __slots__ = ("size", "left", "right", "sign", "label")

    def __init__(self, left, right, sign: int = 1, label: str = ""):
        self.left = tuple(tuple(row) for row in left)
        self.right = tuple(tuple(row) for row in right)
        self.size = n = len(self.left)
        if not isinstance(sign, int) or sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.sign = sign
        self.label = label or f"braided set on {n} elements"
        for table in (self.left, self.right):
            if len(table) != n or any(
                len(row) != n or not all(isinstance(v, int) and 0 <= v < n for v in row)
                for row in table
            ):
                raise ValueError(f"left and right must be {n} x {n} tables of indices 0..{n - 1}")
        if not check_braid_relation((self.left, self.right)):
            raise ValueError("table is not a bijective solution of the braid relation")

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return self.left[x][y], self.right[x][y]

    def is_involutive(self) -> bool:
        n = self.size
        for x in range(n):
            for y in range(n):
                a, b = self.apply(x, y)
                if self.apply(a, b) != (x, y):
                    return False
        return True

    def to_json(self) -> str:
        """Plain JSON table: size plus the two 0-based index matrices."""
        return json.dumps(
            {
                "size": self.size,
                "left": [list(row) for row in self.left],
                "right": [list(row) for row in self.right],
                "sign": self.sign,
                "label": self.label,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "BraidedSet":
        data = json.loads(text)
        if not isinstance(data, dict) or "left" not in data or "right" not in data:
            raise ValueError("a braided set document is a JSON object with 'left' and 'right' tables")
        if not all(isinstance(t, list) and all(isinstance(row, list) for row in t)
                   for t in (data["left"], data["right"])):
            raise ValueError("'left' and 'right' must be lists of index rows")
        return cls(data["left"], data["right"], data.get("sign", 1), data.get("label", ""))

    def __repr__(self):
        return f"BraidedSet({self.label}, n={self.size}, sign={self.sign:+d})"


def check_braid_relation(tables) -> bool:
    """True iff the pair map is a bijection and Psi1 Psi2 Psi1 = Psi2 Psi1 Psi2 on all triples."""
    left, right = tables
    n = len(left)
    seen = set()
    for x in range(n):
        for y in range(n):
            seen.add((left[x][y], right[x][y]))
    if len(seen) != n * n:
        return False

    def psi1(t):
        x, y, z = t
        return left[x][y], right[x][y], z

    def psi2(t):
        x, y, z = t
        return x, left[y][z], right[y][z]

    for t in itertools.product(range(n), repeat=3):
        if psi1(psi2(psi1(t))) != psi2(psi1(psi2(t))):
            return False
    return True


# -- constructions ---------------------------------------------------------


def _compose(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def _inverse(a):
    out = [0] * len(a)
    for i, ai in enumerate(a):
        out[ai] = i
    return tuple(out)


def from_conjugacy_class(k: int, representative) -> BraidedSet:
    """Braided set on the conjugacy class of a permutation in S_k.

    representative: tuple of 1-based images.  Elements are indexed
    lexicographically by image tuples; the braiding is conjugation,
    Psi(x, y) = (x y x^-1, x), and the linearization sign is -1.
    """
    k = _as_int(k, "k")
    if k < 2:
        raise ValueError("k must be >= 2")
    rep = tuple(_as_int(i, "representative entry") - 1 for i in representative)
    if sorted(rep) != list(range(k)):
        raise ValueError("representative must be a permutation of 1..k")
    cls = {rep}
    frontier = [rep]
    transpositions = [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, k)) for i in range(k - 1)]
    while frontier:
        x = frontier.pop()
        for g in transpositions:
            y = _compose(_compose(g, x), _inverse(g))
            if y not in cls:
                cls.add(y)
                frontier.append(y)
    elems = sorted(cls)
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    left = [[0] * n for _ in range(n)]
    right = [[0] * n for _ in range(n)]
    for i, x in enumerate(elems):
        xinv = _inverse(x)
        for j, y in enumerate(elems):
            left[i][j] = index[_compose(_compose(x, y), xinv)]
            right[i][j] = i
    return BraidedSet(left, right, sign=-1, label=f"conjugacy class in S_{k}, size {n}")


def transposition_class(k: int) -> BraidedSet:
    """The class of 2-cycles in S_k (the Fomin-Kirillov braided set X_k)."""
    return from_conjugacy_class(k, (2, 1) + tuple(range(3, k + 1)))


def flip_set(n: int) -> BraidedSet:
    """The trivial braiding Psi(x, y) = (y, x) on n points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    left = [[y for y in range(n)] for _ in range(n)]
    right = [[x for _ in range(n)] for x in range(n)]
    return BraidedSet(left, right, sign=1, label=f"flip on {n} points")


# -- symmetrizer machinery ---------------------------------------------------


def _degree(j, what: str = "j") -> int:
    """A tensor degree as a non-negative int; ValueError for a negative or non-integral one."""
    j = _as_int(j, what)
    if j < 0:
        raise ValueError(f"{what} must be non-negative")
    return j


def _pair_map(x: BraidedSet) -> list[int]:
    """Psi on pair indices a*n + b, as a permutation of range(n^2)."""
    n = x.size
    return [x.left[a][b] * n + x.right[a][b] for a in range(n) for b in range(n)]


def _is_automorphism(x: BraidedSet, g) -> bool:
    """True iff the map g of X is a bijection with Psi(g a, g b) = (g L(a, b), g R(a, b))."""
    n = x.size
    if sorted(g) != list(range(n)):
        return False
    left, right = x.left, x.right
    return all(
        left[g[a]][g[b]] == g[left[a][b]] and right[g[a]][g[b]] == g[right[a][b]]
        for a in range(n)
        for b in range(n)
    )


class _ProductBlocks:
    """Product labels of columns and the symmetry orbits of the blocks they cut out.

    A label is the map sigma_{x_1} o ... o sigma_{x_m} of X (a tuple) of a
    column (x_1, ..., x_m).  ``symmetric`` records whether every sigma_x is
    an automorphism of (X, Psi); only then is conjugation by the sigma's
    used to merge blocks into orbits, each represented by its least label.
    """

    def __init__(self, x: BraidedSet):
        self.size = x.size
        self._sigma = x.left
        self.identity = tuple(range(x.size))
        self.symmetric = all(_is_automorphism(x, s) for s in set(x.left))
        gens = sorted(set(x.left)) if self.symmetric else []
        self._generators = [(s, _inverse(s)) for s in gens]
        self._orbit = {}    # label -> (representative, g, orbit size), label = g rep g^-1
        self._members = {}  # representative -> [(label, g)] over its orbit, sorted

    def orbit(self, label):
        """(rep, g, size): the orbit's least label, a g with label = g rep g^-1, and its size."""
        hit = self._orbit.get(label)
        if hit is None:
            conj = {label: self.identity}  # m -> h with m = h label h^-1
            frontier = [label]
            while frontier:
                m = frontier.pop()
                h = conj[m]
                for s, s_inv in self._generators:
                    image = _compose(_compose(s, m), s_inv)
                    if image not in conj:
                        conj[image] = _compose(s, h)
                        frontier.append(image)
            rep = min(conj)
            back = _inverse(conj[rep])
            members = [(m, _compose(h, back)) for m, h in sorted(conj.items())]
            self._members[rep] = members
            for m, g in members:
                self._orbit[m] = (rep, g, len(members))
            hit = self._orbit[label]
        return hit

    def is_rep(self, label) -> bool:
        return self.orbit(label)[0] == label

    def members(self, rep):
        """[(label, g)] over the orbit of a representative already passed to orbit()."""
        return self._members[rep]

    def rows(self, basis, label, m: int, cache: dict):
        """Entry of the level-m block ``label``: basis[rep] with every tensor factor sent through g.

        basis maps representatives to their entries: a list of sparse rows,
        or the ladder's (rows, column words) pair, whose column words go
        through the same digit map.  Results are memoised in cache.
        """
        out = cache.get(label)
        if out is None:
            rep, g, _ = self.orbit(label)
            out = basis[rep]
            if g != self.identity:
                n = self.size
                half = m // 2
                base = n ** half
                low = [0]
                for _ in range(half):
                    low = [c * n + d for c in low for d in g]
                high = [c * n + d for c in low for d in g] if m % 2 else low
                high = [c * base for c in high]

                def relabel(rows):
                    return [{high[c // base] + low[c % base]: v for c, v in row.items()} for row in rows]

                if isinstance(out, tuple):
                    rows, cols = out
                    out = relabel(rows), [high[c // base] + low[c % base] for c in cols]
                else:
                    out = relabel(out)
            cache[label] = out
        return out

    def first(self):
        """The level-1 basis: {rep: [e_i for the letters i with sigma_i = rep]}."""
        basis = {}
        for i, s in enumerate(self._sigma):
            if self.is_rep(s):
                basis.setdefault(s, []).append({i: 1})
        return basis

    def level(self, basis, m: int, block):
        """The level-(m+1) blocks grown from the level-m basis: (sum of |orbit| * rows, {rep: entry}).

        Each representative rep of level m+1, in sorted order, gets its entry
        from block(parts), parts = [(entry of block l, [i])] over the labels l
        in the orbits of basis and the letters i with l o sigma_i = rep.  An
        entry is a list of rows or a (rows, column words) pair (``rows``);
        blocks given no rows are left out.
        """
        sources = {}  # rep -> {label l: [i]}
        for rep in basis:
            for label, _ in self.members(rep):
                for i, s in enumerate(self._sigma):
                    target = _compose(label, s)
                    if self.is_rep(target):
                        sources.setdefault(target, {}).setdefault(label, []).append(i)
        dim, out, cache = 0, {}, {}
        for target in sorted(sources):
            entry = block([(self.rows(basis, label, m, cache), letters) for label, letters in sources[target].items()])
            rank = len(entry[0] if isinstance(entry, tuple) else entry)
            if rank:
                out[target] = entry
                dim += self.orbit(target)[2] * rank
        return dim, out


class GradedDims:
    """Degreewise dimensions d_0, d_1, ..., possibly partial on budget exhaustion."""

    __slots__ = ("dims", "requested_degree")

    def __init__(self, dims, requested_degree):
        self.dims = list(dims)
        self.requested_degree = requested_degree
        if not self.dims or self.dims[0] != 1:
            raise ValueError("d_0 must be 1")

    @property
    def achieved_degree(self):
        return len(self.dims) - 1

    @property
    def complete(self):
        return self.achieved_degree >= self.requested_degree

    def __eq__(self, other):
        if isinstance(other, list):
            return self.dims == other
        if not isinstance(other, GradedDims):
            return NotImplemented
        return self.dims == other.dims

    def __iter__(self):
        return iter(self.dims)

    def __repr__(self):
        suffix = "" if self.complete else f" (partial, requested {self.requested_degree})"
        return f"GradedDims({self.dims}{suffix})"


class SymmetrizerLadder:
    """Incremental row and column bases of the braided symmetrizers S_1, S_2, ...

    Level j keeps, for each representative label of a block orbit (see the
    module docstring), a pair: a maximal independent set K of the rows of
    S_j in that block (sparse integer dicts over n^j columns, entries bounded
    by j!), and a list L of as many independent column words of the block.
    A representative block of level j takes as candidates the rows w n + i
    of S_j, where w runs over the kept rows of the level-(j-1) blocks l and
    i over the letters with l o sigma_i equal to its label; a
    non-representative l contributes its representative's rows and column
    words relabelled by the conjugating g.  The candidates are ranked on the
    columns u n + i, u in the kept column words of l, only
    (``_block_bases``): the transpose S_j(Psi)^T = S_j(Psi^-1) makes that
    restriction keep the same rows as the full candidates would, and only
    the kept rows are built in full, through ``_candidate_rows``.  The
    elimination's pivot columns give the block's next column words.  The
    level's rank is the sum over representatives of |orbit| times the
    block's rank.  Words act step by step, with O(j n^2) tables per level.
    ``budget`` still bounds the column count n^j of a level, although no
    array of that size, or of a block's size, is built.
    """

    def __init__(self, x: BraidedSet, budget: int = DEFAULT_BUDGET):
        self.x = x
        self.budget = budget
        self.dims = [1, x.size]
        self._blocks = _ProductBlocks(x)
        # representative label -> (kept rows, kept column words) of that block; S_1 = id
        self._basis = {rep: (rows, [c for row in rows for c in row]) for rep, rows in self._blocks.first().items()}

    @property
    def level(self) -> int:
        return len(self.dims) - 1

    def _word_inverse_perms(self, j: int):
        """Inverse steps of the words Psi_{j-1}..Psi_k, k = j-1..1, as (lo, delta, sign).

        Column c of n^j lists its base-n digits most significant first.
        Entry p of the list undoes one braiding at 0-based position j-2-p,
        which rewrites only the digit pair at place value lo = n^p: it sends
        c to c + delta[c // lo % n^2].  A column carried through entries
        0..p is its preimage under the word with k = j-1-p, of length p+1,
        whose sign sign^(p+1) the entry holds.
        """
        n, sign = self.x.size, self.x.sign
        inv = [0] * (n * n)
        for t, s in enumerate(_pair_map(self.x)):
            inv[s] = t
        return [(n ** p, [(s - t) * n ** p for t, s in enumerate(inv)], sign ** (p + 1)) for p in range(j - 1)]

    def _candidate_rows(self, steps, sources):
        """Rows of (A (x) e_i) P_j for each (A, letters) in sources and i in letters.

        The words are applied to each row's support only.
        """
        n = self.x.size
        nn = n * n
        for rows, letters in sources:
            for prev_row in rows:
                for i in letters:
                    x0 = {u * n + i: v for u, v in prev_row.items()}
                    out = dict(x0)
                    for c, v in x0.items():
                        y = c
                        for lo, delta, sgn in steps:
                            y += delta[y // lo % nn]
                            w = out.get(y, 0) + sgn * v
                            if w:
                                out[y] = w
                            elif y in out:
                                del out[y]
                    yield out

    def _block_bases(self, steps, forward, parts):
        """(kept rows, column words) of one block of S_j from parts [((rows, column words), letters)].

        Candidate r = (w, i) is row w n + i of S_j, for each kept row w of
        S_(j-1) in parts and i in its letters, in the order of
        ``_candidate_rows``; the columns are u n + i for each kept column
        word u and i in its letters.  Entry (r, v) of M, the restriction of
        S_j to these rows and columns, is sum_p sign^p row_w[c div n] over
        the images c = W_p(v) with c mod n = i, W_p = Psi_(j-1)..Psi_(j-p)
        (W_0 = id): one lookup per image in an index of the kept rows'
        entries, which holds only the columns c div n that some image
        reaches.  ``steps`` are ``_word_inverse_perms(j)`` and ``forward`` the same
        steps braiding forward, entry q at place value n^q; W_p runs
        forward[p-1], ..., forward[0].
        The rows of M kept by ``sparse_int_rank`` name the rows of S_j that
        the full candidates would keep, and only those are built in full.
        Its pivots are d_j independent columns of M: the echelon is T times
        M on the kept rows, T invertible, and triangular on the pivots.
        """
        n = self.x.size
        nn = n * n
        columns = [u * n + i for (_, cols), letters in parts for u in cols for i in letters]
        images = []  # column of M -> [(W_p(v), sign^p)]
        for v in columns:
            out = [(v, 1)]
            for p in range(1, len(forward) + 1):
                c = v
                for lo, delta, _ in reversed(forward[:p]):  # place values n^(p-1), ..., n^0
                    c += delta[c // lo % nn]
                out.append((c, forward[p - 1][2]))
            images.append(out)
        looked_up = {c // n for out in images for c, _ in out}
        index = {}  # column u of S_(j-1) -> [(first candidate of the row, letter -> offset, entry)]
        sources = []  # candidate -> (row of S_(j-1), letter)
        for (rows, _), letters in parts:
            offset = {i: k for k, i in enumerate(letters)}
            for row in rows:
                first = len(sources)
                for u, e in row.items():
                    if u in looked_up:
                        index.setdefault(u, []).append((first, offset, e))
                sources.extend((row, i) for i in letters)
        m = [{} for _ in sources]
        for k, out in enumerate(images):
            for c, sgn in out:
                for first, offset, e in index.get(c // n, ()):
                    row = m[first + offset[c % n]]
                    row[k] = row.get(k, 0) + sgn * e
        _, kept, pivots = sparse_int_rank(m)
        source = {id(row): ([w], [i]) for row, (w, i) in zip(m, sources)}  # kept holds these very rows
        rows = list(self._candidate_rows(steps, [source[id(row)] for row in kept]))
        return rows, [columns[k] for k in pivots]

    def extend(self):
        """Build the next level and record its dimension."""
        j = self.level + 1
        n = self.x.size
        if n ** j > self.budget:
            raise BudgetExceeded(f"n^j = {n}^{j} = {n ** j} exceeds budget {self.budget}")
        steps = self._word_inverse_perms(j)
        pairs = _pair_map(self.x)
        forward = [(lo, [(s - t) * lo for t, s in enumerate(pairs)], sgn) for lo, _, sgn in steps]
        rank, self._basis = self._blocks.level(
            self._basis, j - 1, lambda parts: self._block_bases(steps, forward, parts))
        self.dims.append(rank)
        return rank

    def dim(self, j: int) -> int:
        j = _degree(j)
        while self.level < j:
            self.extend()
        return self.dims[j]


def symmetrizer_rank(x: BraidedSet, j: int, budget: int = DEFAULT_BUDGET) -> int:
    """Rank over Q of the braided symmetrizer S_j; equals dim BS(A)^j."""
    return SymmetrizerLadder(x, budget).dim(j)


def hilbert_dims(x: BraidedSet, max_degree: int, budget: int = DEFAULT_BUDGET) -> GradedDims:
    """[dim BS(A)^j for j = 0..max_degree]; partial result if the budget runs out."""
    max_degree = _degree(max_degree, "max_degree")
    ladder = SymmetrizerLadder(x, budget)
    try:
        ladder.dim(max_degree)
    except BudgetExceeded:
        pass
    return GradedDims(ladder.dims[:max_degree + 1], max_degree)


def invariant_dims(x: BraidedSet, j: int, budget: int = DEFAULT_BUDGET) -> int:
    """Dimension of the joint eigenvalue-1 invariants of the (signed) braidings.

    The intersection over the adjacent slot pairs i of ker(sign Psi_i - id),
    grown one tensor factor at a time like the quadratic variant's W_j.  For
    involutive braidings this agrees with symmetrizer_rank.  In the strictly
    braided case no relation between the two is claimed, and no caller
    compares them.  ``budget`` bounds n^j.
    """
    j = _degree(j)
    if j <= 1:
        return 1 if j == 0 else x.size
    n = x.size
    if n ** j > budget:
        raise BudgetExceeded(f"n^j = {n ** j} exceeds budget {budget}")
    pair_map = []  # pair a n + b -> its image under sign Psi - id
    for c, image in enumerate(_pair_map(x)):
        col = {image: x.sign}
        col[c] = col.get(c, 0) - 1
        pair_map.append([(k, v) for k, v in col.items() if v])
    return next(itertools.islice(_joint_kernel_dims(x, pair_map, n * n), j - 2, None))


# -- dense small-scale symmetrizers (oracle for the ladder's recursion) --------


def _reduced_word(perm) -> list[int]:
    """A reduced word for a permutation via bubble sort (0-based positions)."""
    p = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                word.append(i)
                changed = True
    word.reverse()
    return word


def _apply_word(x: BraidedSet, word, tup):
    digits = list(tup)
    for pos in reversed(word):
        a, b = digits[pos], digits[pos + 1]
        digits[pos], digits[pos + 1] = x.left[a][b], x.right[a][b]
    return tuple(digits)


def symmetrizer_matrix_bruteforce(x: BraidedSet, j: int):
    """S_j as a dense dict {(row, col): int} from the literal sum over all j! reduced words."""
    j = _degree(j)
    n = x.size
    out: dict[tuple[int, int], int] = {}
    tuples = list(itertools.product(range(n), repeat=j))
    index = {t: i for i, t in enumerate(tuples)}
    for perm in itertools.permutations(range(j)):
        word = _reduced_word(perm)
        sgn = x.sign ** len(word)
        for c, tup in enumerate(tuples):
            r = index[_apply_word(x, word, tup)]
            out[(r, c)] = out.get((r, c), 0) + sgn
    return {k: v for k, v in out.items() if v}


def symmetrizer_matrix_recursive(x: BraidedSet, j: int):
    """S_j by the coset recursion S_j = (S_{j-1} (x) id) P_j, dense dict form.

    Every row of S_{j-1}, not only a kept basis, goes through the ladder's
    own kernel (SymmetrizerLadder._word_inverse_perms and _candidate_rows),
    so comparing this with symmetrizer_matrix_bruteforce checks the code
    behind every Hilbert dimension.  Row r n + i of S_j is (row r (x) e_i) P_j.
    """
    j = _degree(j)
    ladder = SymmetrizerLadder(x)
    rows = [{0: 1}]
    for level in range(1, j + 1):
        steps = ladder._word_inverse_perms(level)
        rows = list(ladder._candidate_rows(steps, [(rows, range(x.size))]))
    return {(r, c): v for r, row in enumerate(rows) for c, v in row.items()}


# -- quadratic variant ---------------------------------------------------------


def _ker_s2_basis(x: BraidedSet):
    """Integer basis of ker(S_2) = ker(id + sign Psi), one vector per cycle of Psi on pairs.

    A kernel vector v obeys v[Psi(c)] = -sign v[c], so along a cycle of
    length L it is (-sign)^i times its first entry, which closes up exactly
    when (-sign)^L = 1.  Cycles have disjoint supports, so these vectors
    are a basis.
    """
    pairs = _pair_map(x)
    ratio = -x.sign
    seen = [False] * len(pairs)
    basis = []
    for start in range(len(pairs)):
        if seen[start]:
            continue
        vec = {}
        c, v = start, 1
        while not seen[c]:
            seen[c] = True
            vec[c] = v
            c, v = pairs[c], v * ratio
        if v == 1:
            basis.append(vec)
    return basis


def _joint_kernel_dims(x: BraidedSet, pair_map, width: int):
    """Yield dim W_j for j = 2, 3, ..., one level per next().

    W_1 = V and W_j = (W_(j-1) (x) V) cap (V^(x j-2) (x) ker M), the joint
    kernel of the 2-slot map M (``linalg._intersect_step``'s ``pair_map``
    and ``width``) at every adjacent slot pair.  When ker M is spanned by
    vectors within the label blocks of V (x) V and is stable under every
    relabelling, W_j is block-diagonal and orbit-stable like S_j, so each
    representative block is one intersection step.
    """
    blocks = _ProductBlocks(x)
    n, basis = x.size, blocks.first()
    for m in itertools.count(1):
        dim, basis = blocks.level(basis, m, lambda parts: _intersect_step(parts, n, pair_map, width))
        yield dim


def hilbert_dims_quadratic(x: BraidedSet, max_degree: int, budget: int = DEFAULT_BUDGET) -> GradedDims:
    """Degreewise dimensions of the quadratic algebra TA / <ker S_2>.

    Its degree-j ideal is the sum of the V^(x i) (x) K (x) V^(x j-2-i),
    K = ker S_2, so the orthogonal complement W_j, of dimension n^j minus
    the ideal's, is (W_(j-1) (x) V) intersected with V^(x j-2) (x) K^perp:
    the part of W_(j-1) (x) V whose last two slots contract to 0 against
    every cycle vector of K (``_joint_kernel_dims``).  ``budget`` bounds n^j
    from degree 3 on; degree 2 is always computed.
    """
    max_degree = _degree(max_degree, "max_degree")
    n = x.size
    dims = [1, n][:max_degree + 1]
    kernel = _ker_s2_basis(x)
    contract = [[] for _ in range(n * n)]  # pair a n + b -> [(t, entry (a, b) of kernel[t])]
    for t, vec in enumerate(kernel):
        for c, v in vec.items():
            contract[c].append((t, v))
    levels = _joint_kernel_dims(x, contract, len(kernel))
    for j in range(2, max_degree + 1):
        if j > 2 and n ** j > budget:
            break
        dims.append(next(levels))
    return GradedDims(dims, max_degree)


# -- reference series -----------------------------------------------------------


def fk_reference_series(n: int) -> QTPoly:
    """The quoted Hilbert-series products for the 2-cycle classes, expanded.

    n = 2: [2];  n = 3: [2]^2 [3];  n = 4: [2]^2 [3]^2 [4]^2;
    n = 5: [4]^4 [5]^2 [6]^4.
    """
    products = {
        2: [2],
        3: [2, 2, 3],
        4: [2, 2, 3, 3, 4, 4],
        5: [4, 4, 4, 4, 5, 5, 6, 6, 6, 6],
    }
    if n not in products:
        raise ValueError("reference series are quoted for n = 2..5 only")
    acc = QTPoly.one()
    for m in products[n]:
        acc = acc * t_bracket(m)
    return acc
