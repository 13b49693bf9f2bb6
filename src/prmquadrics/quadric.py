"""Analysis of quadratic forms over GF(q).

A quadric in P^N falls into one of six projective classes: double
hyperplane, pair of distinct rational hyperplanes, pair of conjugate
hyperplanes over GF(q^2), and the three absolutely irreducible classes
(parabolic, hyperbolic, elliptic).  A rank-r quadric is a cone over a
smooth quadric in P^(r-1) of one of three Witt types: parabolic (odd r,
sign 0), hyperbolic (+1) or elliptic (-1).  The double hyperplane is the
parabolic type at rank 1, and the rational and conjugate hyperplane pairs
are the hyperbolic and elliptic types at rank 2.  ``WITT_SIGN`` holds each
class's sign and ``witt_class`` maps (rank, sign) back to the class; the
point count p_(N-1) + sign * q**(N - r/2), the projective index, the
canonical form and ``discriminate`` read the sign, not the class.

``classify`` decides class membership from two independent measurements:
the rank, obtained by exact linear algebra on the radical, and the number
of rational zeros, obtained by exhaustive evaluation.  ``point_set``
evaluates a form at every point at once on byte lanes (``gf.LaneCode``),
one byte per point, whose zero bytes are the zero set: ``evaluation_lane``
builds it by P^N's blocks, each a copy of P^(N-1), from P^(N-1)'s
monomial lanes and the X_0 terms (``ProjectiveSpace.monomial_rows()``).
``discriminate`` insists the measured count matches the closed form for
the rank and the sign it reads, so every call doubles as a self-check of
the counting identities.  The survey in ``prm`` measures the rank another
way, by counting the rational points of the singular locus
(``subspace_dimension``), and passes through the same check.

Canonicalization performs an explicit Witt decomposition in one frame s_k,
the unit vectors at first, held with F(s_k) and B(s_k, s_l) and changed only
by s_j <- c s_j + d s_i.  Each step reads F on three vectors still to split
(``point_set`` on P^2; Chevalley-Warning says it has a zero) and sends that
zero to the radical or to a hyperbolic pair; the zero-free rest is at most
a plane, of 1 - sign vectors.  The result is an invertible T with F(T y) a
multiple of the canonical form of the class; its columns are the
anisotropic part, then the hyperbolic pairs, then the radical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .gf import Field, irreducible_binary_constants
from .linalg import (
    identity,
    kernel_basis,
    transpose,
    vec_add,
    vec_scale,
)
from .projspace import (
    LinearSubspace,
    _stack,
    projective_size,
    projective_space,
    subspace_from_vectors,
)


class QuadricError(Exception):
    pass


class ZeroForm(QuadricError):
    """Analysis operations reject the zero form."""


class DimensionMismatch(QuadricError):
    pass


class ZeroLinearForm(QuadricError):
    pass


class InconsistentClassRank(QuadricError):
    pass


class InternalInconsistency(QuadricError):
    """A measured quantity matched no class formula; must never fire."""


class QuadricClass(str, Enum):
    DOUBLE_HYPERPLANE = "double_hyperplane"
    HYPERPLANE_PAIR = "hyperplane_pair"
    CONJUGATE_PAIR = "conjugate_pair"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    ELLIPTIC = "elliptic"


ABSOLUTELY_IRREDUCIBLE = (
    QuadricClass.PARABOLIC,
    QuadricClass.HYPERBOLIC,
    QuadricClass.ELLIPTIC,
)

# A class's Witt sign is the type of its smooth part, a quadric in P^(r-1):
# parabolic 0, hyperbolic +1, elliptic -1, with 1 - sign anisotropic
# variables.  Each sign maps to its class at the least rank (1 for sign 0,
# 2 for +-1) and its class at every higher rank.
_WITT_TYPES = {
    0: (QuadricClass.DOUBLE_HYPERPLANE, QuadricClass.PARABOLIC),
    1: (QuadricClass.HYPERPLANE_PAIR, QuadricClass.HYPERBOLIC),
    -1: (QuadricClass.CONJUGATE_PAIR, QuadricClass.ELLIPTIC),
}
WITT_SIGN = {cls: sign for sign, types in _WITT_TYPES.items() for cls in types}


@lru_cache(maxsize=None)
def monomials(n: int) -> tuple[tuple[int, int], ...]:
    """Degree-2 monomials X_i X_j on n+1 variables, (i, j) with i <= j."""
    return tuple((i, j) for i in range(n + 1) for j in range(i, n + 1))


@lru_cache(maxsize=None)
def _monomial_index(n: int) -> dict[tuple[int, int], int]:
    return {m: k for k, m in enumerate(monomials(n))}


@dataclass(frozen=True)
class QuadraticForm:
    """Homogeneous degree-2 form sum(a_ij X_i X_j) on P^ambient.

    Coefficients are stored flat in the canonical monomial order.
    """

    field: Field
    ambient: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(monomials(self.ambient)):
            raise DimensionMismatch(
                f"expected {len(monomials(self.ambient))} coefficients, "
                f"got {len(self.coeffs)}"
            )

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def coeff(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return self.coeffs[_monomial_index(self.ambient)[(i, j)]]

    def evaluate(self, vec) -> int:
        """Value at a coordinate vector (any representative)."""
        vec = tuple(vec)
        if len(vec) != self.ambient + 1:
            raise DimensionMismatch(
                f"point has {len(vec)} coordinates, form expects {self.ambient + 1}"
            )
        field = self.field
        add, mul = field._add, field._mul
        acc = 0
        for (i, j), c in zip(monomials(self.ambient), self.coeffs):
            if c:
                acc = add[acc][mul[c][mul[vec[i]][vec[j]]]]
        return acc

    def scale(self, lam: int) -> "QuadraticForm":
        if lam == 1:
            return self
        mul = self.field._mul
        return QuadraticForm(self.field, self.ambient, tuple(mul[lam][c] for c in self.coeffs))


def form_from_terms(field: Field, ambient: int, terms: dict) -> QuadraticForm:
    """Build a form from a {(i, j): field element} mapping (accumulating)."""
    idx = _monomial_index(ambient)
    coeffs = [0] * len(idx)
    for (i, j), c in terms.items():
        if i > j:
            i, j = j, i
        if not 0 <= c < field.q:
            raise ValueError(f"coefficient {c} is not an element of GF({field.q})")
        coeffs[idx[(i, j)]] = field.add(coeffs[idx[(i, j)]], c)
    return QuadraticForm(field, ambient, tuple(coeffs))


def polarize(form: QuadraticForm):
    """Gram table of the polar bilinear form B(u,v) = F(u+v) - F(u) - F(v).

    Off-diagonal entries are the mixed coefficients; the diagonal is 2*a_ii,
    which vanishes in characteristic 2.
    """
    n = form.ambient
    field = form.field
    add = field._add
    gram = [[0] * (n + 1) for _ in range(n + 1)]
    for (i, j), c in zip(monomials(n), form.coeffs):
        if i == j:
            gram[i][i] = add[c][c]
        else:
            gram[i][j] = c
            gram[j][i] = c
    return tuple(tuple(row) for row in gram)


def radical_quadratic(form: QuadraticForm) -> list[list[int]]:
    """Basis of {v in Rad B : F(v) = 0}, Rad B the kernel of the polar form.

    In odd characteristic this is all of Rad B.  In characteristic 2, with
    basis w_i of Rad B and s_i = F(w_i), the form restricted to Rad B is
    sum(s_i c_i^2); substituting d_i = c_i^2 (Frobenius is bijective) turns
    the vanishing condition into the linear equation sum(s_i d_i) = 0, and
    square roots map a basis of its solution space back.
    """
    field = form.field
    radb = kernel_basis(field, polarize(form), form.ambient + 1)
    if field.p != 2 or not radb:
        return radb
    svals = [form.evaluate(w) for w in radb]
    if not any(svals):
        return radb
    dbasis = kernel_basis(field, [svals])
    half = field.q // 2
    out = []
    for d in dbasis:
        vec = [0] * (form.ambient + 1)
        for di, w in zip(d, radb):
            if di:
                vec = vec_add(field, vec, vec_scale(field, field.pow(di, half), w))
        out.append(vec)
    return out


def evaluation_lane(form: QuadraticForm) -> bytes:
    """F's values at every point of P^N, one byte per point in canonical
    order, in the field's lane code and not yet normalized.

    Built by P^N's blocks (``ProjectiveSpace.monomial_rows()``): on block a,
    P^(N-1) prefixed by a, F(a, p) = c_00 a^2 + a L(p) + F'(p), with
    L = sum c_0j X_j and F' the part of F in X_1..X_N.  L and F' are summed
    at P^(N-1)'s width, L from the X_0 X_j lanes at block a = 1.  The q
    blocks of a L and of F', each with 0 at (1, 0, ..., 0), and c_00 times
    X_0^2's lane are at most three lanes (a zero L or F' is left out), which
    ``LaneCode.terms`` (at least 3 for q <= 25) lets add without
    normalizing."""
    field, n, coeffs = form.field, form.ambient, form.coeffs
    code, space = field.lane_code, projective_space(field, n)
    rows = space.monomial_rows()
    lanes = [(coeffs[0], rows[0])]
    if n:
        lower = projective_space(field, n - 1)
        size = len(lower)
        at = field.order_index(1) * size + 1  # block a = 1, after (1, 0, ..., 0)
        linear = [(c, lane[at:at + size]) for c, lane in zip(coeffs[1:n + 1], rows[1:]) if c]
        rest = [(c, lane) for c, lane in zip(coeffs[n + 1:], lower.monomial_rows()) if c]
        if linear:
            linear = code.combine(linear, size).translate(code.normal)
            blocks = [linear.translate(code.scale[a]) for a in field.elements]
            lanes.append((1, _stack(field, blocks, b"\0")))
        if rest:
            rest = code.combine(rest, size).translate(code.normal)
            lanes.append((1, _stack(field, [rest] * field.q, b"\0")))
    return code.combine(lanes, len(space))


def point_set(form: QuadraticForm) -> int:
    """Bit-indexed set of rational zeros over the canonical point order."""
    return form.field.lane_code.zero_mask(evaluation_lane(form))


def witt_class(rk: int, sign: int) -> QuadricClass | None:
    """The class of rank rk whose smooth part has Witt sign ``sign``, or
    None when no class has both: odd ranks are sign 0, even ranks +-1."""
    if rk < 1 or (rk % 2 == 1) != (sign == 0):
        return None
    return _WITT_TYPES[sign][rk > 2]


def _check_class_rank(cls: QuadricClass, rk: int, n: int) -> None:
    if not 1 <= rk <= n + 1:
        raise InconsistentClassRank(f"rank {rk} impossible in P^{n}")
    if witt_class(rk, WITT_SIGN[cls]) is not cls:
        raise InconsistentClassRank(f"class {cls.value} cannot have rank {rk}")


def expected_point_count(cls: QuadricClass, rk: int, n: int, q: int) -> int:
    """Closed-form number of rational points for a class/rank pair:
    p_(N-1) + sign * q**(N - r/2)."""
    _check_class_rank(cls, rk, n)
    return projective_size(q, n - 1) + WITT_SIGN[cls] * q ** (n - rk // 2)


def closed_form_projective_index(cls: QuadricClass, rk: int, n: int) -> int:
    """Largest dimension of a rational linear subspace inside the quadric:
    N - ceil(r/2), one less for sign -1."""
    return n - (rk + 1) // 2 - (WITT_SIGN[cls] < 0)


def discriminate(rk: int, count: int, n: int, q: int) -> QuadricClass:
    """Resolve the class from measured rank and point count: the sign of
    count - p_(N-1).

    Raises InternalInconsistency when the count matches no class formula for
    the rank; by the counting theory this can never happen for a genuine
    quadratic form, so a raise indicates a bug upstream.
    """
    excess = count - projective_size(q, n - 1)
    sign = (excess > 0) - (excess < 0)
    cls = witt_class(rk, sign)
    if cls is None or excess != sign * q ** (n - rk // 2):
        raise InternalInconsistency(f"rank-{rk} form with {count} points")
    return cls


def subspace_dimension(count: int, q: int) -> int:
    """Vector dimension d of a subspace with ``count`` rational projective
    points, that is, the d with (q**d - 1)/(q - 1) == count.

    Raises InternalInconsistency when no d fits: the points measured were
    not those of a linear subspace.
    """
    d = size = 0
    while size < count:
        d, size = d + 1, size * q + 1
    if size != count:
        raise InternalInconsistency(f"{count} points form no subspace over GF({q})")
    return d


@dataclass(frozen=True)
class ClassificationReport:
    quadric_class: QuadricClass
    rank: int
    singular_locus: LinearSubspace
    point_count: int
    projective_index: int

    def to_json(self) -> dict:
        return {
            "class": self.quadric_class.value,
            "rank": self.rank,
            "singular_locus": self.singular_locus.to_json(),
            "point_count": self.point_count,
            "projective_index": self.projective_index,
        }


def classify(form: QuadraticForm) -> ClassificationReport:
    """Full classification of a nonzero form.

    Rank comes from the radical, the point count from enumeration, and the
    two must agree with a class formula (self-check).
    """
    if form.is_zero:
        raise ZeroForm("cannot classify the zero form")
    field, n = form.field, form.ambient
    radq = radical_quadratic(form)
    rk = (n + 1) - len(radq)
    count = point_set(form).bit_count()
    cls = discriminate(rk, count, n, field.q)
    return ClassificationReport(
        quadric_class=cls,
        rank=rk,
        singular_locus=subspace_from_vectors(field, n, radq),
        point_count=count,
        projective_index=closed_form_projective_index(cls, rk, n),
    )


@lru_cache(maxsize=None)
def _pair_positions(k: int) -> tuple[tuple[int, ...], ...]:
    """``[i][j]``: the index of the monomial y_i y_j among ``monomials(k-1)``."""
    idx = _monomial_index(k - 1)
    return tuple(tuple(idx[min(i, j), max(i, j)] for j in range(k)) for i in range(k))


def substitute(form: QuadraticForm, t) -> QuadraticForm:
    """The form F(T y) for an (N+1) x k matrix T whose columns are the
    images of y_0..y_(k-1): a change of variables when k = N + 1, the
    restriction to the span of the columns when k is smaller (a Witt step
    of ``canonicalize`` restricts F to at most three span vectors).

    Each term c X_a X_b of F adds c T[a][i] T[b][j] to the coefficient of
    y_i y_j, over the nonzero entries of rows a and b.
    """
    field = form.field
    n = form.ambient
    if len(t) != n + 1:
        raise DimensionMismatch("substitution matrix size mismatch")
    add, mul = field._add, field._mul
    k = len(t[0])
    positions = _pair_positions(k)
    nonzero = [[(i, x) for i, x in enumerate(row) if x] for row in t]
    coeffs = [0] * len(monomials(k - 1))
    for (a, b), c in zip(monomials(n), form.coeffs):
        if c:
            for i, x in nonzero[a]:
                times = mul[mul[c][x]]
                at = positions[i]
                for j, y in nonzero[b]:
                    coeffs[at[j]] = add[coeffs[at[j]]][times[y]]
    return QuadraticForm(field, k - 1, tuple(coeffs))


def restrict_to_hyperplane(form: QuadraticForm, linear_form) -> QuadraticForm:
    """Section of the quadric by the hyperplane {L = 0}, as a form on P^(N-1).

    F is restricted (:func:`substitute`) to the span of a kernel basis of
    L, the N columns of an (N+1) x N matrix.  Rational zeros of the result
    correspond bijectively to the rational points of the quadric on the
    hyperplane.
    """
    field, n = form.field, form.ambient
    lvec = list(linear_form)
    if len(lvec) != n + 1:
        raise DimensionMismatch("linear form length mismatch")
    if not any(lvec):
        raise ZeroLinearForm("hyperplane section needs a nonzero linear form")
    return substitute(form, transpose(kernel_basis(field, [lvec])))


def projective_index_bruteforce(form: QuadraticForm) -> int:
    """Largest dimension of a rational linear subspace inside the quadric.

    By the definition: the largest k such that some k-flat's point mask lies
    inside the zero mask, and -1 when there is no rational point.  A k-flat
    inside the quadric holds (k-1)-flats inside it, so k rises until no
    k-flat fits.
    """
    if form.is_zero:
        raise ZeroForm("projective index of the zero form is undefined")
    space = projective_space(form.field, form.ambient)
    outside = space.full_mask ^ point_set(form)
    k = -1
    while any(flat & outside == 0 for flat in space.flats(k + 1)):
        k += 1
    return k


@lru_cache(maxsize=None)
def canonical_form(field: Field, n: int, cls: QuadricClass, rk: int) -> QuadraticForm:
    """Reference form of the given class and rank on P^n: the anisotropic
    part on the first 1 - sign variables (X0^2, or the norm form
    X0^2 + alpha X0 X1 + d X1^2), then hyperbolic pairs X_k X_(k+1)."""
    _check_class_rank(cls, rk, n)
    aniso = 1 - WITT_SIGN[cls]
    terms = {(k, k + 1): 1 for k in range(aniso, rk, 2)}
    if aniso:
        terms[(0, 0)] = 1
    if aniso == 2:
        alpha, d = irreducible_binary_constants(field)
        terms[(0, 1)] = alpha
        terms[(1, 1)] = d
    return form_from_terms(field, n, terms)


@dataclass(frozen=True)
class CanonicalizationResult:
    quadric_class: QuadricClass
    rank: int
    transform: tuple[tuple[int, ...], ...]
    scalar: int


def canonicalize(form: QuadraticForm) -> CanonicalizationResult:
    """Witt decomposition: invertible T and scalar lam with F(T y) = lam * C.

    C is the canonical form of the detected class and rank.  The frame holds
    f[k] = F(s_k) and b[k][l] = B(s_k, s_l).  A step makes the lowest zero u
    of F on the first three rest vectors a frame vector.  If B(u, .) vanishes
    on the rest, u joins the radical; otherwise the first rest vector w with
    B(u, w) != 0 becomes its hyperbolic partner, and the rest is made
    B-orthogonal to both.  The identity is checked coefficient-wise.
    """
    if form.is_zero:
        raise ZeroForm("cannot canonicalize the zero form")
    field, n = form.field, form.ambient
    add, mul, neg = field._add, field._mul, field._neg
    s = identity(n + 1)
    f = [form.coeff(k, k) for k in range(n + 1)]
    b = [list(row) for row in polarize(form)]

    def value(j, c, i, d):
        """F(c s_j + d s_i), from the frame."""
        return add[add[mul[mul[c][c]][f[j]]][mul[mul[c][d]][b[i][j]]]][mul[mul[d][d]][f[i]]]

    def move(j, c, i, d):
        """s_j <- c s_j + d s_i (c != 0), keeping f and b."""
        if c == 1 and not d:
            return
        f[j] = fj = value(j, c, i, d)
        mc, md = mul[c], mul[d]
        b[j] = row = [add[mc[x]][md[y]] for x, y in zip(b[j], b[i])]
        row[j] = add[fj][fj]
        for k, x in enumerate(row):
            b[k][j] = x
        s[j] = [add[mc[x]][md[y]] for x, y in zip(s[j], s[i])]

    rest = list(range(n + 1))
    pairs, radical = [], []
    while rest:
        head = rest[:3]
        k = len(head) - 1
        zeros = point_set(QuadraticForm(field, k, tuple(
            b[head[i]][head[j]] if i < j else f[head[i]] for i, j in monomials(k)
        )))
        if not zeros:
            break
        y = projective_space(field, k).points[(zeros & -zeros).bit_length() - 1]
        u = head[max(i for i, x in enumerate(y) if x)]  # y is 1 there
        for t, x in zip(head, y):
            if x and t != u:
                move(u, 1, t, x)
        rest.remove(u)
        w = next((x for x in rest if b[u][x]), None)
        if w is None:  # B(u, .) is also zero on the pairs and the radical
            radical.append(u)
            continue
        move(w, field.inv(b[u][w]), w, 0)
        move(w, 1, u, neg[f[w]])
        rest.remove(w)
        for x in rest:
            move(x, 1, w, neg[b[x][u]])
            move(x, 1, u, neg[b[x][w]])
        pairs += [u, w]

    if len(rest) > 2:
        raise InternalInconsistency("anisotropic residual of dimension > 2")
    r = (n + 1) - len(radical)
    cls = witt_class(r, 1 - len(rest))  # the rest is the anisotropic part
    lam = 1
    if len(rest) == 1:
        lam = f[rest[0]]
        for u in pairs[::2]:
            move(u, lam, u, 0)
    elif len(rest) == 2:
        # All anisotropic binary forms are one GL_2 orbit (norm forms of
        # GF(q^2)), so the scan finds x^2 + alpha x y + d y^2 with scalar 1.
        alpha, d = irreducible_binary_constants(field)
        coords = [(a, c) for a in field.elements for c in field.elements if a or c]
        u, w = rest
        a, c = next((a, c) for a, c in coords if value(u, a, w, c) == 1)
        if not a:
            u, w, a, c = w, u, c, a
        move(u, a, w, c)
        # B(u, c u + e w) = 2c + e b_uw, and e != 0 as the target is no square.
        c, e = next((c, e) for c, e in coords if value(u, c, w, e) == d
                    and add[mul[c][b[u][u]]][mul[e][b[u][w]]] == alpha)
        move(w, e, u, c)
        rest = [u, w]

    t = transpose([s[k] for k in rest + pairs + radical])
    target = canonical_form(field, n, cls, r).scale(lam)
    if substitute(form, t).coeffs != target.coeffs:
        raise InternalInconsistency("canonicalization identity failed")
    return CanonicalizationResult(
        quadric_class=cls, rank=r, transform=tuple(map(tuple, t)), scalar=lam
    )
