"""Finite inverse semigroups as abstract multiplication tables and their left
regular representation by 0/1 partial isometry matrices.

The representation sends s to the matrix acting on the basis indexed by the
elements: column t carries basis_{s·t} when t·t* lies below s*·s in the
natural order, and is zero otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .numlin import DEFAULT_TOL, InvariantViolation, PisomError, ToleranceConfig
from .pisom import PartialIsometry, make_partial_isometry


class NotIdempotent(PisomError):
    pass


class InvalidTable(PisomError):
    def __init__(self, message: str, violations: list):
        super().__init__(message)
        self.violations = violations


@dataclass(frozen=True)
class TableViolation:
    kind: str
    witness: tuple[int, ...]

    def __str__(self):
        return f"{self.kind} fails at {self.witness}"


@dataclass(frozen=True)
class InverseSemigroupTable:
    """n elements, an n x n index table for multiplication, and the involution."""

    mult: np.ndarray
    star: np.ndarray
    names: tuple[str, ...] | None = None

    @property
    def n(self) -> int:
        return self.mult.shape[0]

    def name_of(self, i: int) -> str:
        return self.names[i] if self.names else f"s{i}"

    def idempotents(self) -> list[int]:
        return [i for i in range(self.n) if self.mult[i, i] == i]


def make_table(mult, star, names=None) -> InverseSemigroupTable:
    mult = np.asarray(mult, dtype=int)
    star = np.asarray(star, dtype=int)
    n = mult.shape[0]
    if mult.shape != (n, n) or star.shape != (n,):
        raise ValueError(f"table shapes inconsistent: mult {mult.shape}, star {star.shape}")
    if names is not None:
        names = tuple(names)
        if len(names) != n or len(set(names)) != n:
            raise ValueError("names must be unique and match the element count")
    mult = mult.copy()
    star = star.copy()
    mult.setflags(write=False)
    star.setflags(write=False)
    return InverseSemigroupTable(mult, star, names)


def validate_table(t: InverseSemigroupTable) -> list[TableViolation]:
    """Exhaustive inverse-semigroup axiom check; violations are data, not errors.

    Checks associativity, that star is an involutive antihomomorphism, that
    every element is regular with inverse star, and that idempotents commute.
    """
    n = t.n
    m = t.mult
    violations: list[TableViolation] = []
    if np.any(m < 0) or np.any(m >= n) or np.any(t.star < 0) or np.any(t.star >= n):
        return [TableViolation("index_range", ())]

    assoc_left = m[m, :]            # (a,b,c) -> (a·b)·c
    assoc_right = m[:, m]           # (a,b,c) -> a·(b·c)
    for a, b, c in zip(*np.nonzero(assoc_left != assoc_right)):
        violations.append(TableViolation("associativity", (int(a), int(b), int(c))))

    for a in np.nonzero(t.star[t.star] != np.arange(n))[0]:
        violations.append(TableViolation("involution", (int(a),)))

    anti = m[np.ix_(t.star, t.star)].T  # (a,b) -> b*·a*
    for a, b in zip(*np.nonzero(t.star[m] != anti)):
        violations.append(TableViolation("antihomomorphism", (int(a), int(b))))

    idx = np.arange(n)
    for a in np.nonzero(m[m[idx, t.star], idx] != idx)[0]:
        violations.append(TableViolation("regularity", (int(a),)))
    for a in np.nonzero(m[m[t.star, idx], t.star] != t.star)[0]:
        violations.append(TableViolation("regularity_star", (int(a),)))

    idem = t.idempotents()
    for e, f in itertools.combinations(idem, 2):
        if m[e, f] != m[f, e]:
            violations.append(TableViolation("idempotents_commute", (int(e), int(f))))
    return violations


def natural_order_leq(t: InverseSemigroupTable, a: int, b: int) -> bool:
    """Natural order on idempotents: a <= b iff a·b = a."""
    for x in (a, b):
        if t.mult[x, x] != x:
            raise NotIdempotent(f"element {x} ({t.name_of(x)}) is not idempotent")
    return bool(t.mult[a, b] == a)


def barnes_representation(t: InverseSemigroupTable,
                          cfg: ToleranceConfig = DEFAULT_TOL) -> list[PartialIsometry]:
    """Left regular representation by n x n 0/1 partial isometries.

    The result is validated: every image is a partial isometry, the map is
    multiplicative and star-compatible (these hold exactly for integer
    matrices, so any mismatch raises InvariantViolation).  Each image is the
    partial map col -> its row, so multiplicativity is checked on those maps
    in O(n^3) integer steps, not on n^2 dense matrix products.
    """
    violations = validate_table(t)
    if violations:
        raise InvalidTable(
            f"table fails {len(violations)} axiom check(s); first: {violations[0]}",
            violations)
    n = t.n
    m = t.mult
    idx = np.arange(n)
    tt_star = m[idx, t.star]                     # t·t*
    s_star_s = m[t.star, idx]                    # s*·s
    # rows[s, col]: the row of column col's one in the image of s, -1 where
    # the column is zero (t·t* not below s*·s)
    defined = m[tt_star[None, :], s_star_s[:, None]] == tt_star[None, :]
    rows = np.where(defined, m, -1)
    mats = np.zeros((n, n, n), dtype=np.complex128)
    s_of, col = np.nonzero(defined)
    mats[s_of, rows[s_of, col], col] = 1.0

    images = [make_partial_isometry(mat, cfg) for mat in mats]
    for s in range(n):
        # the image of s times the image of u, as a partial map of the
        # columns: col -> rows[s, rows[u, col]]
        product = np.where(rows >= 0, rows[s][np.maximum(rows, 0)], -1)
        wrong = np.flatnonzero((product != rows[m[s]]).any(axis=1))
        if wrong.size:
            raise InvariantViolation(
                f"representation is not multiplicative at ({t.name_of(s)}, {t.name_of(int(wrong[0]))})")
        if not np.array_equal(mats[t.star[s]], mats[s].conj().T):
            raise InvariantViolation(
                f"representation is not star-compatible at {t.name_of(s)}")
    return images


def cyclic_group_table(k: int) -> InverseSemigroupTable:
    """Z_k with star = group inverse."""
    idx = np.arange(k)
    mult = (idx[:, None] + idx[None, :]) % k
    star = (-idx) % k
    names = tuple(f"g{i}" if i else "e" for i in range(k))
    return make_table(mult, star, names)


def _compose_partial(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    # (f∘g)(x) = f(g(x)); -1 marks "undefined"
    return tuple(f[g[x]] if g[x] >= 0 else -1 for x in range(len(g)))


def _invert_partial(f: tuple[int, ...]) -> tuple[int, ...]:
    out = [-1] * len(f)
    for x, y in enumerate(f):
        if y >= 0:
            out[y] = x
    return tuple(out)


def _partial_name(f: tuple[int, ...]) -> str:
    pairs = [f"{x}>{y}" for x, y in enumerate(f) if y >= 0]
    return ",".join(pairs) if pairs else "z"


def symmetric_inverse_table(n: int) -> InverseSemigroupTable:
    """The symmetric inverse semigroup I_n of partial injections of an n-set,
    built by brute force over all partial injective maps (desk scale only)."""
    elements: list[tuple[int, ...]] = []
    universe = list(range(n))
    for size in range(n + 1):
        for dom in itertools.combinations(universe, size):
            for img in itertools.permutations(universe, size):
                f = [-1] * n
                for x, y in zip(dom, img):
                    f[x] = y
                elements.append(tuple(f))
    elements.sort(key=lambda f: (sum(1 for y in f if y >= 0), f))
    index = {f: i for i, f in enumerate(elements)}
    count = len(elements)
    mult = np.zeros((count, count), dtype=int)
    star = np.zeros(count, dtype=int)
    for i, f in enumerate(elements):
        star[i] = index[_invert_partial(f)]
        for j, g in enumerate(elements):
            mult[i, j] = index[_compose_partial(f, g)]
    names = tuple(_partial_name(f) for f in elements)
    return make_table(mult, star, names)


def table_from_dict(data: dict) -> InverseSemigroupTable:
    for key in ("n", "mult", "star"):
        if key not in data:
            raise ValueError(f"table JSON is missing field {key!r}")
    t = make_table(data["mult"], data["star"], data.get("names"))
    if t.n != int(data["n"]):
        raise ValueError(f"declared n = {data['n']} but table has {t.n} elements")
    return t


def table_to_dict(t: InverseSemigroupTable) -> dict:
    out = {"n": t.n, "mult": t.mult.tolist(), "star": t.star.tolist()}
    if t.names:
        out["names"] = list(t.names)
    return out
