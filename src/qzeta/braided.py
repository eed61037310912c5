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
are built in full, and only once the next level reads them.  The same
elimination gives L_j: its echelon is T M[K_j, :], T invertible,
triangular on its d_j pivot columns, so those columns of M are
independent.  The words Psi_{j-1}...Psi_k are applied to
the support of each kept row, and to each column word of M, one positional
braiding step (an n^2-entry offset table) at a time, so no table over the
n^j columns is ever built.  The quadratic variant A = TA / <K>, K = ker
S_2, is a quotient in normal-word coordinates (Polishchuk-Positselski):
A_j = (A_{j-1} (x) V) / image(A_{j-2} (x) K), on the n d_{j-1} columns
u x, u a normal word of A_{j-1}, with one relation row per normal word
w of A_{j-2} and cycle vector k of K, sum k_ab rho_a(w) (x) e_b, rho_a(w)
the class of w a read off level j-1's normal forms
(``linalg._normal_forms``).  The braided invariants are joint kernels W_j
= (W_{j-1} (x) V) cap (V^{j-2} (x) ker M), M = sign Psi - id: each level is
a kernel on n dim W_{j-1} candidates (``linalg._intersect_step``).

The ladder, the quotient and the joint kernels run block by block through
one level routine, ``_ProductBlocks.level``.  Column (x_1, ..., x_j) is
labelled by the map sigma_{x_1} o ... o sigma_{x_j} of X, with sigma_x =
left[x]; the first component of the braid relation, sigma_{L(x,y)}
sigma_{R(x,y)} = sigma_x sigma_y, says every braiding keeps the label, so
S_j, A_j and W_j are block-diagonal by label.  When every sigma_x is an
automorphism of (X, Psi) (true for every rack, Psi(x, y) = (sigma_x(y),
x), so for every conjugacy class; checked in O(n^3) for other sets),
relabelling all tensor factors by one element g of the group they
generate commutes with S_j, the ideal of A and W_j, and carries block l
to block g l g^-1.  Only the least label of each such orbit is
computed, its dimension counted |orbit| times, and a level holds one copy
of each representative's rows and column words.  The ladder reads a block l
= g rep g^-1 through g: each column it looks up is sent through g^-1 by
base-n digit tables.  It holds its d_j kept rows as recipes (w, g, i), the
row (g w) n + i of S_j for a kept row w of a representative of level j-1,
and relabels and builds them only when the next level reads them, so the
top level's rows are never built.  The joint kernels hand
``linalg._intersect_step`` the same one copy, each row relabelled through
the digit tables of g only as the step reads it.  Each label's targets l o
sigma_i, and whether each is a representative, are found once per
ladder.  The quotient gives block l the representative's normal words sent
through g, and reads a block through its conjugator as a change of basis:
its representative's normal words need not be stable under the
representative's centralizer, so the matrices of the centralizer elements
it meets are built, level by level, from the normal forms
(``_quadratic_levels``).  Otherwise every block is its own orbit, through
the same code.  Budgets still count the n^j columns of a level, not the
columns of a block or the n d_{j-1} of the ladder's restriction.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from math import lcm

from .errors import BudgetExceeded
from .qcombinat import t_bracket
from .qlaurent import _as_int, _degree
from .qtpoly import QTPoly
from .linalg import _intersect_step, _normal_forms, _reduce, _relabel, _strip, _word_tables, sparse_int_rank

DEFAULT_BUDGET = 100_000


class BraidedSet:
    """Finite set with a braiding table; both invariants verified at construction.

    left[x][y], right[x][y] give Psi(x, y) = (left, right) on 0-based
    indices; sign is the scalar carried by the linearization on C X.
    """

    __slots__ = ("size", "left", "right", "sign", "label")

    def __init__(self, left, right, sign: int = 1, label: str = ""):
        self._set_tables(left, right, sign, label)
        if not check_braid_relation((self.left, self.right)):
            raise ValueError("table is not a bijective solution of the braid relation")

    def _set_tables(self, left, right, sign, label):
        """Store the tables, sign and label, checked for type and shape; the braid relation is left to the caller."""
        self.left = tuple(tuple(row) for row in left)
        self.right = tuple(tuple(row) for row in right)
        self.size = n = len(self.left)
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.sign = sign
        if not isinstance(label, str):
            raise ValueError(f"label must be a str, got {label!r}")
        self.label = label or f"braided set on {n} elements"
        for table in (self.left, self.right):
            if len(table) != n or any(
                len(row) != n or not all(type(v) is int and 0 <= v < n for v in row)
                for row in table
            ):
                raise ValueError(f"left and right must be {n} x {n} tables of indices 0..{n - 1}")

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
    return tuple([a[i] for i in b])


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

    Conjugation is a group action, so the table braids by construction and
    ``check_braid_relation``'s n^3 triples are not walked: the table is
    checked to be the conjugation, and its pair map a bijection, in
    O(n^2 k) (``_conjugation_holds``).
    """
    k = _degree(k, "k", 2)
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
    if not _conjugation_holds(elems, left):
        raise ValueError("table is not the conjugation action of the class")
    out = BraidedSet.__new__(BraidedSet)
    out._set_tables(left, right, -1, f"conjugacy class in S_{k}, size {n}")
    return out


def _conjugation_holds(elems, left) -> bool:
    """True iff Psi(i, j) = (left[i][j], i) is conjugation on the permutations elems, and a bijection of pairs.

    Entry z = elems[left[i][j]] must be x y x^-1 for x, y = elems[i],
    elems[j], checked pointwise as z(x(t)) = x(y(t)); the pair map is a
    bijection iff no row of left repeats an index.  O(n^2 k) for n
    permutations of k points.
    """
    k = len(elems[0])
    for x, row in zip(elems, left):
        if len(set(row)) != len(row):
            return False
        for y, z in zip(elems, row):
            z = elems[z]
            if any(z[x[t]] != x[y[t]] for t in range(k)):
                return False
    return True


def transposition_class(k: int) -> BraidedSet:
    """The class of 2-cycles in S_k (the Fomin-Kirillov braided set X_k)."""
    k = _degree(k, "k", 2)
    return from_conjugacy_class(k, (2, 1) + tuple(range(3, k + 1)))


def flip_set(n: int) -> BraidedSet:
    """The trivial braiding Psi(x, y) = (y, x) on n points."""
    n = _degree(n, "n", 1)
    left = [[y for y in range(n)] for _ in range(n)]
    right = [[x for _ in range(n)] for x in range(n)]
    return BraidedSet(left, right, sign=1, label=f"flip on {n} points")


# -- symmetrizer machinery ---------------------------------------------------


def _pair_map(x: BraidedSet) -> list[int]:
    """Psi on pair indices a*n + b, as a permutation of range(n^2)."""
    n = x.size
    return [x.left[a][b] * n + x.right[a][b] for a in range(n) for b in range(n)]


def _check_budget(n: int, j: int, budget: int):
    """BudgetExceeded if degree j's n^j columns exceed budget; every route checks degree 2 on here."""
    if n ** j > budget:
        raise BudgetExceeded(f"n^j = {n}^{j} = {n ** j} exceeds budget {budget}")


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
        # a rack-type Psi(a, b) = (sigma_a(b), a) braids only if sigma_a(sigma_b(c)) =
        # sigma_(sigma_a(b))(sigma_a(c)), which makes each sigma_a an automorphism: O(n^2)
        rack = all(row == (a,) * x.size for a, row in enumerate(x.right))
        self.symmetric = rack or all(_is_automorphism(x, s) for s in set(x.left))
        gens = sorted(set(x.left)) if self.symmetric else []
        self._generators = [(s, _inverse(s)) for s in gens]
        self._orbit = {}    # label -> (representative, g, orbit size), label = g rep g^-1
        self._members = {}  # representative -> [(label, g)] over its orbit, sorted
        self._targets = {}  # label l -> [(i, l o sigma_i)] over the i whose target is a representative
        self._digits = (None, {})  # (m, {g: digit tables of g}) of the last level asked

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
                    image = tuple([s[m[t]] for t in s_inv])  # s m s^-1
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

    def targets(self, label):
        """[(i, l o sigma_i)] over the letters i that take label l to a representative, computed once."""
        hit = self._targets.get(label)
        if hit is None:
            hit = self._targets[label] = []
            for i, s in enumerate(self._sigma):
                target = _compose(label, s)
                if self.is_rep(target):
                    hit.append((i, target))
        return hit

    def digits(self, g, m: int):
        """(high, low, base): the word c of m letters, each sent through g, is high[c // base] + low[c % base].

        ``linalg._word_tables`` of g, kept for the level m last asked; None for the identity.
        """
        if g == self.identity:
            return None
        level, maps = self._digits
        if level != m:
            maps = {}
            self._digits = m, maps
        hit = maps.get(g)
        if hit is None:
            hit = maps[g] = _word_tables(g, m)
        return hit

    def first(self):
        """The level-1 blocks: {rep: [the letters i with sigma_i = rep]}."""
        letters = {}
        for i, s in enumerate(self._sigma):
            if self.is_rep(s):
                letters.setdefault(s, []).append(i)
        return letters

    def level(self, basis, block):
        """The next level's blocks grown from the representatives in basis: (sum of |orbit| * rank, {rep: entry}).

        Each representative of the next level, in sorted order, gets its
        entry from block(parts), parts = [(rep, g, letters)] over the labels
        l = g rep g^-1 in the orbits of basis and the letters i with
        l o sigma_i equal to it.  The block reads basis[rep] itself and
        sends it through g as it needs.  An entry is a list of rows or a
        (rows, column words) pair, of which the rank is the length; blocks of
        rank 0 are left out.
        """
        sources = {}  # target -> {label l: (rep, g, [i])}
        for rep in basis:
            for label, g in self.members(rep):
                for i, target in self.targets(label):
                    sources.setdefault(target, {}).setdefault(label, (rep, g, []))[2].append(i)
        dim, out = 0, {}
        for target in sorted(sources):
            entry = block(list(sources[target].values()))
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
        self.requested_degree = _degree(requested_degree, "requested_degree")
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

    Level j keeps one entry for each representative label of a block orbit
    (see the module docstring): a maximal independent set K of the rows of
    S_j in that block, and a list L of as many independent column words of
    the block.  K is held as recipes (w, g, i), the row (g w) n + i of S_j
    for a kept row w of a level-(j-1) representative (a sparse integer dict
    over n^(j-1) columns), a conjugator g and a letter i.  ``kept_rows``
    relabels and builds them, entries bounded by j!, and ``extend`` does so
    only when level j+1 reads them, so the top level's rows are never
    built.  A representative block of level j+1 takes as
    candidates the rows w n + i of S_(j+1), where w runs over the kept rows
    of the level-j blocks l and i over the letters with l o sigma_i equal to
    its label.  A non-representative l = g rep g^-1 is read through its
    representative's one copy of the rows and column words and the digit
    tables of g (``_block_bases``).  The candidates are ranked on the
    columns u n + i, u in the kept column words of l, only: the transpose
    S_j(Psi)^T = S_j(Psi^-1) makes that restriction keep the same rows as
    the full candidates would.  The elimination's pivot columns give the
    block's next column words.  The level's rank is the sum over
    representatives of |orbit| times the block's rank.  Words act step by
    step, with O(j n^2) tables per level.  ``budget`` still bounds the
    column count n^j of a level, although no array of that size, or of a
    block's size, is built.
    """

    def __init__(self, x: BraidedSet, budget: int = DEFAULT_BUDGET):
        self.x = x
        self.budget = _degree(budget, "budget")
        self.dims = [1, x.size]
        self._blocks = _ProductBlocks(x)
        # representative label -> (kept rows as recipes (w, g, i), kept column words): the recipe is
        # row (g w) n + i of S_j for a kept row w of a representative of level j-1 and its conjugator g;
        # S_0 is the 1 x 1 identity on the empty word, so S_1 = id has the recipes ({0: 1}, id, i)
        self._basis = {
            rep: ([({0: 1}, self._blocks.identity, i) for i in letters], letters)
            for rep, letters in self._blocks.first().items()
        }
        self._steps = []  # _word_inverse_perms of the current level

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

    def kept_rows(self):
        """{representative: its kept rows of S_j} at the current level j, built from their recipes."""
        m, digits = self.level - 1, self._blocks.digits
        return {
            rep: list(self._candidate_rows(self._steps, [([_relabel(w, digits(g, m))], [i]) for w, g, i in recipes]))
            for rep, (recipes, _) in self._basis.items()
        }

    def _block_bases(self, steps, forward, previous, parts):
        """(kept rows as recipes, column words) of one block of S_j from parts [(rep, g, letters)].

        ``previous`` maps each representative of level j-1 to its kept rows,
        its column words and their index {column u: [(k, entry of row k at
        u)]}, filled for the columns M reads; the block l = g rep g^-1 holds
        them sent through g.  Candidate r = (w, i) is row w n + i of S_j,
        for each kept row w of a part's block and i in its letters, in the
        order of ``_candidate_rows``; the columns are v = u n + i for each of
        the block's column words u and i in its letters.  Entry (r, v) of M,
        the restriction of S_j to these rows and columns, is
        sum_p sign^p row_w[c div n] over the images c = W_p(v) with
        c mod n = i, W_p = Psi_(j-1)..Psi_(j-p) (W_0 = id).  The letter
        c mod n names the one part whose block holds c div n, since
        l o sigma_i is the block's label, and g^-1 (c div n) is looked up in
        that part's representative's index: no other block is copied.
        ``steps`` are ``_word_inverse_perms(j)`` and ``forward`` the same
        steps braiding forward, entry q at place value n^q; W_p runs
        forward[p-1], ..., forward[0].  The rows of M kept by
        ``sparse_int_rank`` name the rows of S_j that the full candidates
        would keep; they are returned as recipes (w, g, i), which the next
        level relabels and builds.  Its pivots are d_j independent columns of
        M: the echelon is T times M on the kept rows, T invertible, and
        triangular on the pivots.
        """
        n = self.x.size
        nn = n * n
        blocks, m = self._blocks, len(steps)  # level-(j-1) words have m = j-1 letters
        columns = []
        by_letter = {}  # letter i -> (candidate (row 0, i), candidates per row, rows, index, g^-1 digits or None)
        sources = []  # candidate -> its recipe (w, g, i): row g w of S_(j-1), w in rep's block, and letter i
        first = 0
        for rep, g, letters in parts:
            rows, cols, index = previous[rep]
            inverse = blocks.digits(_inverse(g), m)  # None when g is the identity
            if inverse is not None:
                high, low, base = blocks.digits(g, m)
                cols = [high[u // base] + low[u % base] for u in cols]
            columns.extend(u * n + i for u in cols for i in letters)
            stride = len(letters)
            for pos, i in enumerate(letters):
                by_letter[i] = (first + pos, stride, rows, index, inverse)
            sources.extend((row, g, i) for row in rows for i in letters)
            first += len(rows) * stride
        m_rows = [{} for _ in range(first)]
        for col, v in enumerate(columns):
            for p in range(len(forward) + 1):
                image = v
                for lo, delta, _ in reversed(forward[:p]):  # place values n^(p-1), ..., n^0
                    image += delta[image // lo % nn]
                sgn = forward[p - 1][2] if p else 1
                hit = by_letter.get(image % n)
                if hit is None:
                    continue
                start, stride, rows, index, inverse = hit
                u = image // n
                if inverse is not None:
                    high, low, base = inverse
                    u = high[u // base] + low[u % base]
                hits = index.get(u)
                if hits is None:
                    hits = index[u] = [(k, row[u]) for k, row in enumerate(rows) if u in row]
                for k, e in hits:
                    row = m_rows[start + k * stride]
                    row[col] = row.get(col, 0) + sgn * e
        _, kept, pivots = sparse_int_rank(m_rows)
        source = {id(row): r for r, row in enumerate(m_rows)}  # kept holds these very rows
        return [sources[source[id(row)]] for row in kept], [columns[k] for k in pivots]

    def extend(self):
        """Build the next level and record its dimension."""
        j = self.level + 1
        _check_budget(self.x.size, j, self.budget)
        steps = self._word_inverse_perms(j)
        pairs = _pair_map(self.x)
        forward = [(lo, [(s - t) * lo for t, s in enumerate(pairs)], sgn) for lo, _, sgn in steps]
        previous = {rep: (rows, self._basis[rep][1], {}) for rep, rows in self.kept_rows().items()}
        rank, self._basis = self._blocks.level(
            self._basis, lambda parts: self._block_bases(steps, forward, previous, parts))
        self._steps = steps
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

    The intersection over the adjacent slot pairs i of ker(sign Psi_i - id):
    entry j of ``_joint_kernel_dims`` on ``_invariant_pair_map``.  For
    involutive braidings this agrees with symmetrizer_rank.  In the strictly
    braided case no relation between the two is claimed, and no caller
    compares them.  ``budget`` bounds n^j from degree 2 on, as in the
    ladder.
    """
    j, budget = _degree(j), _degree(budget, "budget")
    return next(itertools.islice(_joint_kernel_dims(x, _invariant_pair_map(x), x.size ** 2, budget), j, None))


def _invariant_pair_map(x: BraidedSet):
    """sign Psi - id on pairs, as ``_intersect_step`` reads it: pair a n + b -> [(k, entry)] of its image."""
    pair_map = []
    for c, image in enumerate(_pair_map(x)):
        col = {image: x.sign}
        col[c] = col.get(c, 0) - 1
        pair_map.append([(k, v) for k, v in col.items() if v])
    return pair_map


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


def symmetrizer_matrix_bruteforce(x: BraidedSet, j: int):
    """S_j as a dense dict {(row, col): int} from the literal sum over all j! reduced words.

    The columns are the tuples of ``itertools.product`` in order.  Psi at
    position p is one map of those tuples, read off x.left and x.right;
    each permutation's term composes the maps along its reduced word, and
    its (row, col) hits are counted per sign.
    """
    j = _degree(j)
    n = x.size
    tuples = list(itertools.product(range(n), repeat=j))
    index = {t: i for i, t in enumerate(tuples)}
    steps = [
        [index[t[:p] + (x.left[t[p]][t[p + 1]], x.right[t[p]][t[p + 1]]) + t[p + 2:]] for t in tuples]
        for p in range(j - 1)
    ]
    cols = range(len(tuples))
    hits = {1: Counter(), -1: Counter()}
    for perm in itertools.permutations(range(j)):
        word = _reduced_word(perm)
        rows = cols
        for p in reversed(word):
            step = steps[p]
            rows = [step[r] for r in rows]
        hits[x.sign ** len(word)].update(zip(rows, cols))
    total = hits[1]
    total.subtract(hits[-1])
    return {k: v for k, v in total.items() if v}


def symmetrizer_matrix_recursive(x: BraidedSet, j: int):
    """S_j by the coset recursion S_j = (S_{j-1} (x) id) P_j, dense dict form.

    Every row of S_{j-1}, not only a kept basis, goes through the code that
    builds the ladder's kept rows (_word_inverse_perms and _candidate_rows),
    so comparing this with symmetrizer_matrix_bruteforce checks those rows.
    The ranks come from _block_bases; crit 14(a) checks them against the
    rank of the brute-force S_j.  Row r n + i of S_j is (row r (x) e_i) P_j.
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


def _joint_kernel_dims(x: BraidedSet, pair_map, width: int, budget: int):
    """Yield dim W_j for j = 0, 1, 2, ..., one level per next(); BudgetExceeded at the first n^j, j >= 2, above budget.

    W_1 = V and W_j = (W_(j-1) (x) V) cap (V^(x j-2) (x) ker M), the joint
    kernel of the 2-slot map M (``linalg._intersect_step``'s ``pair_map``
    and ``width``) at every adjacent slot pair.  When ker M is spanned by
    vectors within the label blocks of V (x) V and is stable under every
    relabelling, W_j is block-diagonal and orbit-stable like S_j, so each
    representative block is one intersection step, which reads each part's
    rows through the digit tables of its g as it forms its candidates.
    W_j is a subspace of V^(x j) held in its own words, so a relabelled row
    is a vector of the other block as it is.  ``invariant_dims`` and crit
    13 walk it with M = sign Psi - id; the tests keep the contraction
    against ker S_2 as the quadratic variant's oracle, whose W_j is the
    annihilator of the degree-j ideal.
    """
    n = x.size
    yield 1
    yield n
    blocks = _ProductBlocks(x)
    basis = {rep: [{i: 1} for i in letters] for rep, letters in blocks.first().items()}
    for m in itertools.count(1):
        _check_budget(n, m + 1, budget)
        dim, basis = blocks.level(basis, lambda parts: _intersect_step([  # reads basis before the rebinding
            (map(_relabel, basis[rep], itertools.repeat(blocks.digits(g, m))), letters)
            for rep, g, letters in parts], n, pair_map, width))
        yield dim


def _quadratic_levels(x: BraidedSet, budget: int):
    """Yield dim A_j for j = 0, 1, 2, ..., one level per next(); BudgetExceeded at the first n^j, j >= 2, above budget.

    A = TV / <K>, K = ker S_2 (``_ker_s2_basis``), splits into the label
    blocks of ``_ProductBlocks``, since every cycle vector of K lies in one
    block of V (x) V, and A_j = (A_(j-1) (x) V) / image(A_(j-2) (x) K)
    block by block.  A block of level m has a basis of normal words: a
    representative keeps its own, and a block l = g rep g^-1 has B_l, rep's
    sent through g.  A vector of a block is {index of a normal word: entry}.

    Representative L of level j (``_ProductBlocks.level``) has the columns
    y n^(j-1) + u, for each letter y and normal word u of the block l of
    level j-1 with l o sigma_y = L: the last letter leads the column order.
    Each cycle vector k of K and normal word w of the block
    L o (sigma_a sigma_b)^-1 of level j-2 give one relation row
    sum_ab k_ab rho_a(w) (x) e_b, where rho_a(w) is the class of the word
    w a in B_(l o sigma_a).  The rows, sorted by their last column and then
    their length, go through ``linalg._reduce``.  Of the orders tried on
    X_5, these two kept the rows sparsest: through degree 8 they took 6 s
    where word order took 72 s.  The free columns are L's normal words, and
    ``linalg._normal_forms`` writes every other column in them.  So
    d_j = n d_(j-1) - rank, and no vector over the n^j words is formed.

    The digit tables of g alone do not give rho: the normal words of a
    representative need not be stable under its centralizer C(rep), since
    relabelling does not keep the column order that picked them, so h(B_l)
    is in general another basis of block h l h^-1 than B_(h l h^-1).
    ``act`` writes h(B_l) in B_(h l h^-1) by the one c in C(rep) with
    h g = g' c, for the conjugators g of l and g' of h l h^-1: the matrix
    of c on rep's normal words, built from level m-1's matrices and rep's
    normal forms and kept, per level, for each c asked.
    """
    n = x.size
    sigma = x.left
    sigma_inv = [_inverse(s) for s in sigma]
    blocks = _ProductBlocks(x)
    identity = blocks.identity
    blocks.orbit(identity)
    relations = []  # per cycle vector k: (the inverse of its label sigma_a sigma_b, [(a, b, k_ab)])
    for vec in _ker_s2_basis(x):
        a, b = divmod(min(vec), n)
        relations.append((_inverse(_compose(sigma[a], sigma[b])), [(*divmod(c, n), v) for c, v in vec.items()]))
    # level m: {rep: (its normal words as columns, {column: its class in B_rep})}; level 0 is the empty word
    levels = [{identity: ([0], {})}]
    acts = [{}]  # level m: {(rep, c) or (label, h): [c(B_rep[i]) in B_rep or h(B_label[i]) in B_(h label h^-1)]}
    fractional = False  # whether a normal form so far has a non-integer entry

    def append(vec, forms, m, y):
        """The class of (sum_i vec[i] B[i]) y in a block of level m with the normal forms ``forms``."""
        shift = y * n ** (m - 1)
        out = {}
        for i, v in vec.items():
            for k, e in forms[shift + i].items():
                out[k] = out.get(k, 0) + v * e
        return {k: v for k, v in out.items() if v}

    def act(m, label, h):
        """[h(B_label[i]) in B_(h label h^-1), over i] for a nonzero block of level m."""
        hit = acts[m].get((label, h))
        if hit is not None:
            return hit
        rep, g, _ = blocks.orbit(label)
        _, g2, _ = blocks.orbit(tuple([h[label[t]] for t in _inverse(h)]))
        c = _compose(_inverse(g2), _compose(h, g))
        hit = acts[m].get((rep, c))
        if hit is None:
            normal, forms = levels[m][rep]
            if m == 0 or c == identity:
                hit = [{i: 1} for i in range(len(normal))]
            else:  # normal word i is u y, u a normal word of l1 = rep o sigma_y^-1: c(u) in B_(c l1 c^-1), then c(y)
                hit = []
                for col in normal:
                    y, i = divmod(col, n ** (m - 1))
                    hit.append(append(act(m - 1, _compose(rep, sigma_inv[y]), c)[i], forms, m, c[y]))
            acts[m][rep, c] = hit
        acts[m][label, h] = hit
        return hit

    yield 1
    try:
        for j in itertools.count(1):
            if j >= 2:
                _check_budget(n, j, budget)
            previous, before = levels[j - 1], levels[j - 2] if j >= 2 else {}
            base = n ** (j - 1)
            rhos = {}

            def rho(lp, a):
                """[the class of B_lp[i] a in B_(lp o sigma_a), over i]; None where that block of j-1 is 0."""
                if (lp, a) not in rhos:
                    rep, g, _ = blocks.orbit(_compose(lp, sigma[a]))
                    entry = previous.get(rep)
                    g_inv = _inverse(g)  # g^-1 (w a) = (g^-1 w) (g^-1 a), g^-1 w in B_(g^-1 lp g)
                    rhos[lp, a] = None if entry is None else [
                        append(v, entry[1], j - 1, g_inv[a]) for v in act(j - 2, lp, g_inv)]
                return rhos[lp, a]

            def block(parts):
                """(normal words, normal forms) of the representative block that ``parts`` feed."""
                nonlocal fractional
                rep, g, letters = parts[0]
                target = _compose(tuple([g[rep[t]] for t in _inverse(g)]), sigma[letters[0]])
                rows = []
                for lam_inv, terms in relations:
                    lp = _compose(target, lam_inv)
                    entry = before.get(blocks.orbit(lp)[0])
                    if entry is None:
                        continue
                    maps = [(vecs, b * base, v) for a, b, v in terms if (vecs := rho(lp, a)) is not None]
                    for i in range(len(entry[0])):
                        row = {}
                        for vecs, shift, v in maps:
                            for k, e in vecs[i].items():
                                row[shift + k] = row.get(shift + k, 0) + v * e
                        row = {c: v for c, v in row.items() if v}
                        if row:
                            if fractional:  # an int row proportional to it
                                den = lcm(*(Fraction(v).denominator for v in row.values()))
                                row = {c: int(v * den) for c, v in row.items()}
                            rows.append(row)
                rows.sort(key=lambda row: (max(row), len(row)))
                echelon = {}
                for row in rows:
                    out = _reduce(echelon, row)
                    if out:
                        echelon[min(out)] = _strip(out)
                columns = sorted(y * base + i for rep, _, letters in parts
                                 for y in letters for i in range(len(previous[rep][0])))
                normal = [c for c in columns if c not in echelon]
                index = {c: i for i, c in enumerate(normal)}
                forms = {c: {i: 1} for c, i in index.items()}
                for p, form in _normal_forms(echelon).items():
                    forms[p] = {index[c]: v for c, v in form.items()}
                    fractional = fractional or not all(type(v) is int for v in form.values())
                return normal, forms

            dim, level = blocks.level(previous, block)
            levels.append(level)
            acts.append({})
            yield dim
    finally:  # act calls itself through its closure: break that cycle, which holds every level, on close
        del act


def hilbert_dims_quadratic(x: BraidedSet, max_degree: int, budget: int = DEFAULT_BUDGET) -> GradedDims:
    """Degreewise dimensions of the quadratic algebra TA / <ker S_2>.

    Its degree-j ideal is I_(j-1) (x) V + V^(x j-2) (x) K, K = ker S_2, so
    A_j = (A_(j-1) (x) V) / image(A_(j-2) (x) K): d_j is n d_(j-1) minus
    the rank of the relation rows, each over normal words of A_(j-1) times a
    letter, block by block (``_quadratic_levels``).  No vector over the n^j
    columns is formed.  ``budget`` bounds n^j from degree 2 on, as in
    ``hilbert_dims``.
    """
    max_degree, budget = _degree(max_degree, "max_degree"), _degree(budget, "budget")
    dims = []
    try:
        for dim in itertools.islice(_quadratic_levels(x, budget), max_degree + 1):
            dims.append(dim)
    except BudgetExceeded:
        pass
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
