"""Seeded workload inputs, built with the benchmark's own code.

The constructions follow the acceptance-test families of the repository
(criterion-03/04/05) but are copied here rather than imported, so that a
change to the tests cannot change what the benchmark measures.  Nothing in
this module imports pisomlab.

Structure that sets the cost of an operation (dimensions, construction
seeds, limits) is fixed per workload; the run seed only picks the generic
unitaries, the conjugating unitaries and the basis relabellings.  That keeps
the amount of work in a pass the same for every seed, so that runs with
different seeds measure the same thing.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

# closure-infinite: (dimension, max_elements) of each generic unitary pair;
# the two sizes cost about the same, so the median operation is not a
# boundary between unlike closures
CLOSURE_SPECS = ((2, 2000), (4, 1500), (2, 2000), (4, 1500))

# corpus-report: (family, construction seed); limits are the criterion ones.
# pq-equal-5 comes three times, under different conjugations, so that the
# median operation lies inside one group of like operations
CORPUS_LIMITS = {"pq-equal": (250, 8), "uniform": (300, 8), "ring": (400, 10)}
CORPUS_SPECS = (("pq-equal", 2), ("pq-equal", 5), ("pq-equal", 5), ("pq-equal", 5),
                ("uniform", 0), ("uniform", 1), ("uniform", 2), ("uniform", 3),
                ("uniform", 5),
                ("ring", 0), ("ring", 1), ("ring", 5))

# structure-units: sizes n of the cyclic matrix-unit semigroups; n = 8 comes
# three times, under different seeded relabellings, with as many operations
# cheaper (n = 4 and barnes) as dearer (n = 10 and 12), so that the median
# operation lies in the middle of one group of like operations
UNIT_SIZES = (4, 8, 8, 8, 10, 12)
BARNES_ORDER = 3


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _permutation_matrix(perm) -> np.ndarray:
    n = len(perm)
    out = np.zeros((n, n), dtype=complex)
    for src, dst in enumerate(perm):
        out[dst, src] = 1.0
    return out


def _diagonal_indicator(n: int, subset) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    for i in subset:
        out[i, i] = 1.0
    return out


def _signed_permutation(rng: np.random.Generator, m: int) -> np.ndarray:
    perm = rng.permutation(m)
    signs = rng.choice([1.0, -1.0], size=m)
    out = np.zeros((m, m), dtype=complex)
    for src, dst in enumerate(perm):
        out[dst, src] = signs[src]
    return out


def pq_equal_instance(seed: int):
    """Cyclic permutation with inverse, a partial permutation and a diagonal
    projection: the initial and final projection sets coincide."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    p = _permutation_matrix(rng.permutation(n))
    d1 = _diagonal_indicator(n, [i for i in range(n) if rng.integers(2)])
    d2 = _diagonal_indicator(n, [i for i in range(n) if rng.integers(2)])
    return n, [("VD", p @ d1), ("W", p.conj().T), ("D2", d2)]


def uniform_multiplicity_instance(seed: int):
    """k blocks of size m with signed-permutation loops and one block mover:
    commuting final projections whose atoms all have rank m."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    k = int(rng.integers(2, 4))
    n = m * k

    def place(u, i, j):
        out = np.zeros((n, n), dtype=complex)
        out[i * m:(i + 1) * m, j * m:(j + 1) * m] = u
        return out

    named = [(f"L{j}", place(_signed_permutation(rng, m), j, j)) for j in range(k)]
    sources = list(rng.permutation(k))
    targets = list(rng.permutation(k))
    edges = int(rng.integers(1, k + 1))
    mover = np.zeros((n, n), dtype=complex)
    for e in range(edges):
        mover += place(_signed_permutation(rng, m), targets[e], sources[e])
    named.append(("M", mover))
    return n, named


def irreducible_ring_instance(seed: int):
    """Ring of k blocks of size m; the doubled edge 0 -> 1 carries the clock
    and shift pair, so the word algebra is the full matrix algebra."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    k = int(rng.integers(2, 5))
    n = m * k

    def place(u, i, j):
        out = np.zeros((n, n), dtype=complex)
        out[i * m:(i + 1) * m, j * m:(j + 1) * m] = u
        return out

    shift = np.roll(np.eye(m, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi / m) ** np.arange(m))
    named = [("C01", place(clock, 1 % k, 0)), ("S01", place(shift, 1 % k, 0))]
    for j in range(1, k):
        named.append((f"R{j}", place(np.eye(m, dtype=complex), (j + 1) % k, j)))
    return n, named


FAMILIES = {"pq-equal": pq_equal_instance,
            "uniform": uniform_multiplicity_instance,
            "ring": irreducible_ring_instance}


def golden_generators():
    """The 8x8 counterexample: A, B, C built from the non-commuting pair
    E = [[1/2, 1/2], [1/2, 1/2]] and F = diag(1, 0)."""
    E = np.full((2, 2), 0.5)
    F = np.diag([1.0, 0.0])
    Z = np.zeros((2, 2))
    I2 = np.eye(2)
    A = np.block([[Z, E, Z, Z], [Z, Z, Z, Z], [Z, Z, Z, Z], [Z, Z, Z, Z]])
    B = np.block([[Z, Z, Z, I2], [Z, Z, Z, Z], [Z, Z, Z, Z], [Z, Z, Z, Z]])
    C = np.block([[Z, Z, Z, Z], [Z, Z, Z, Z], [Z, Z, Z, F], [Z, Z, Z, Z]])
    return [("A", A.astype(complex)), ("B", B.astype(complex)), ("C", C.astype(complex))]


def cyclic_units(n: int):
    """E_{i,i+1} for i < n and E_{n,1}: the closure is every matrix unit
    together with I and 0."""
    named = []
    for i in range(n - 1):
        mat = np.zeros((n, n), dtype=complex)
        mat[i, i + 1] = 1.0
        named.append((f"E{i + 1}_{i + 2}", mat))
    mat = np.zeros((n, n), dtype=complex)
    mat[n - 1, 0] = 1.0
    named.append((f"E{n}_1", mat))
    return named


def symmetric_inverse_table(n: int):
    """I_n, the partial injections of an n-set, as (mult, star, names)."""
    elements = []
    for size in range(n + 1):
        for dom in itertools.combinations(range(n), size):
            for img in itertools.permutations(range(n), size):
                f = [-1] * n
                for x, y in zip(dom, img):
                    f[x] = y
                elements.append(tuple(f))
    index = {f: i for i, f in enumerate(elements)}

    def compose(f, g):
        return tuple(f[g[x]] if g[x] >= 0 else -1 for x in range(n))

    def invert(f):
        out = [-1] * n
        for x, y in enumerate(f):
            if y >= 0:
                out[y] = x
        return tuple(out)

    mult = [[index[compose(f, g)] for g in elements] for f in elements]
    star = [index[invert(f)] for f in elements]
    names = [",".join(f"{x}>{y}" for x, y in enumerate(f) if y >= 0) or "z"
             for f in elements]
    return mult, star, names


def relabel_table(mult, star, names, perm):
    """The same inverse semigroup with element i renamed perm[i]."""
    count = len(star)
    inv = [0] * count
    for i, p in enumerate(perm):
        inv[p] = i
    new_mult = [[perm[mult[inv[a]][inv[b]]] for b in range(count)] for a in range(count)]
    new_star = [perm[star[inv[a]]] for a in range(count)]
    new_names = [names[inv[a]] for a in range(count)]
    return new_mult, new_star, new_names


def _matrix_to_json(mat) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def generator_file(dim: int, named, limits=None) -> dict:
    out = {"dim": dim,
           "generators": [{"name": name, "matrix": _matrix_to_json(mat)}
                          for name, mat in named]}
    if limits is not None:
        out["limits"] = {"max_elements": limits[0], "max_word_length": limits[1]}
    return out


@dataclass
class ClosureInput:
    label: str
    dim: int
    max_elements: int
    named: list            # [(name, matrix)] as handed to the program


@dataclass
class ReportInput:
    label: str
    kind: str              # "monomial", "golden", "units" or "barnes"
    dim: int
    source: list           # unconjugated generators, for the oracle
    named: list            # conjugated generators, as written to the file
    limits: tuple | None
    document: dict         # the JSON file content

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.document, fh)


def closure_inputs(seed: int) -> list[ClosureInput]:
    rng = np.random.default_rng([seed, 1])
    out = []
    for i, (dim, max_elements) in enumerate(CLOSURE_SPECS):
        named = [("a", random_unitary(rng, dim)), ("b", random_unitary(rng, dim))]
        out.append(ClosureInput(f"u{dim}-{max_elements}-{i}", dim, max_elements, named))
    return out


def corpus_inputs(seed: int) -> list[ReportInput]:
    rng = np.random.default_rng([seed, 2])
    out = []
    specs = [(family, s, FAMILIES[family](s), CORPUS_LIMITS[family])
             for family, s in CORPUS_SPECS]
    specs.append(("golden", 0, (8, golden_generators()), None))
    for i, (family, s, (n, named), limits) in enumerate(specs):
        w = random_unitary(rng, n)
        conj = [(name, w @ m @ w.conj().T) for name, m in named]
        kind = "golden" if family == "golden" else "monomial"
        out.append(ReportInput(f"{family}-{s}-{i}", kind, n, named, conj, limits,
                               generator_file(n, conj, limits)))
    return out


def units_inputs(seed: int) -> list[ReportInput]:
    """Cyclic matrix units conjugated by a seeded signed permutation (which
    keeps every entry exactly 0 or +-1), generators in a seeded order, and
    a seeded relabelling of the I_3 table."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for i, n in enumerate(UNIT_SIZES):
        named = cyclic_units(n)
        w = _signed_permutation(rng, n)
        conj = [(name, w @ m @ w.conj().T) for name, m in named]
        conj = [conj[i] for i in rng.permutation(len(conj))]
        limits = (20000, n + 1)
        out.append(ReportInput(f"units-{n}-{i}", "units", n, named, conj, limits,
                               generator_file(n, conj, limits)))
    mult, star, names = symmetric_inverse_table(BARNES_ORDER)
    perm = [int(p) for p in rng.permutation(len(star))]
    mult, star, names = relabel_table(mult, star, names, perm)
    document = {"n": len(star), "mult": mult, "star": star, "names": names}
    out.append(ReportInput(f"barnes-I{BARNES_ORDER}", "barnes", len(star), [], [],
                           None, document))
    return out
