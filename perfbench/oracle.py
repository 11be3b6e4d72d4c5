"""Answers computed apart from the program.

Nothing here imports pisomlab or uses a tolerance:

* an exact closure over monomial matrices (partial permutations whose
  entries are sixth roots of unity), which follows the program's
  breadth-first order and limits, and the report fields it implies;
* the span dimension of the unital word algebra, by exact elimination
  modulo two primes in which the sixth roots of unity exist;
* closed forms for cyclic matrix units, the free-group census of two
  generic unitaries, and the published figures of the 8x8 counterexample.
"""

from __future__ import annotations

from collections import deque

import numpy as np

PHASES = 6          # entries are powers of exp(2*pi*i/6)
_PRIMES = (2147483647, 1000000009)   # both are 1 mod 6

GOLDEN_ATOM_RANKS = [5, 1, 1, 1]
GOLDEN_DEFECT = 0.25


# A monomial n x n matrix is a tuple over its columns: -1 for a zero column,
# else row * PHASES + k for the entry exp(2*pi*i*k/6) at that row.

def monomial_from_matrix(mat) -> tuple[int, ...]:
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    cols = []
    for j in range(n):
        rows = np.nonzero(np.abs(mat[:, j]) > 0.5)[0]
        if np.any((np.abs(mat[:, j]) > 1e-12) & (np.abs(mat[:, j]) <= 0.5)) or len(rows) > 1:
            raise ValueError(f"column {j} is not monomial")
        if len(rows) == 0:
            cols.append(-1)
            continue
        z = mat[rows[0], j]
        k = int(round(np.angle(z) / (2 * np.pi / PHASES))) % PHASES
        if abs(z - np.exp(2j * np.pi * k / PHASES)) > 1e-12:
            raise ValueError(f"entry {z} is not a sixth root of unity")
        cols.append(int(rows[0]) * PHASES + k)
    mono = tuple(cols)
    targets = [c // PHASES for c in mono if c >= 0]
    if len(set(targets)) != len(targets):
        raise ValueError("matrix is not a partial isometry")
    return mono


def mono_identity(n: int) -> tuple[int, ...]:
    return tuple(j * PHASES for j in range(n))


def mono_product(a, b) -> tuple[int, ...]:
    out = []
    for c in b:
        if c < 0 or a[c // PHASES] < 0:
            out.append(-1)
        else:
            e = a[c // PHASES]
            out.append((e // PHASES) * PHASES + (e + c) % PHASES)
    return tuple(out)


def mono_adjoint(a) -> tuple[int, ...]:
    out = [-1] * len(a)
    for j, c in enumerate(a):
        if c >= 0:
            out[c // PHASES] = j * PHASES + (-c) % PHASES
    return tuple(out)


def initial_support(a) -> frozenset[int]:
    return frozenset(j for j, c in enumerate(a) if c >= 0)


def final_support(a) -> frozenset[int]:
    return frozenset(c // PHASES for c in a if c >= 0)


def mono_projection(n: int, support) -> tuple[int, ...]:
    return tuple(j * PHASES if j in support else -1 for j in range(n))


def exact_closure(n: int, gens, max_elements: int, max_word_length: int):
    """Breadth-first closure of I and the generators by right
    multiplication with the generators, with the program's rules for limits: a generator or product equal to a
    retained element is skipped; a new element when max_elements are
    retained ends the run at 'max_elements'; expanding an element whose word
    has max_word_length letters marks 'max_word_length'.

    Returns (elements in insertion order, limit_hit or None).
    """
    elements: list[tuple[int, ...]] = []
    lengths: list[int] = []
    seen: set[tuple[int, ...]] = set()
    queue: deque[int] = deque()

    def retain(m, length):
        seen.add(m)
        elements.append(m)
        lengths.append(length)
        queue.append(len(elements) - 1)

    limit_hit = None
    retain(mono_identity(n), 0)
    for g in gens:
        if g in seen:
            continue
        if len(elements) >= max_elements:
            limit_hit = "max_elements"
            break
        retain(g, 1)
    while queue and limit_hit != "max_elements":
        i = queue.popleft()
        if lengths[i] >= max_word_length:
            limit_hit = limit_hit or "max_word_length"
            continue
        for g in gens:
            prod = mono_product(elements[i], g)
            if prod in seen:
                continue
            if len(elements) >= max_elements:
                limit_hit = "max_elements"
                break
            retain(prod, lengths[i] + 1)
    return elements, limit_hit


def with_adjoints(gens):
    """Generators followed by each adjoint not already present."""
    out = list(gens)
    for g in gens:
        adj = mono_adjoint(g)
        if adj not in out:
            out.append(adj)
    return out


def _closure_summary(elements, limit_hit) -> dict:
    out = {"status": "truncated" if limit_hit else "closed",
           "element_count": len(elements)}
    if limit_hit:
        out["limit_hit"] = limit_hit
    return out


def _root_of_unity(p: int) -> int:
    for base in range(2, p):
        w = pow(base, (p - 1) // PHASES, p)
        if pow(w, 2, p) != 1 and pow(w, 3, p) != 1:
            return w
    raise ValueError(f"no primitive sixth root of unity modulo {p}")


def span_dimension(n: int, gens) -> int:
    """Dimension of the span of the unital algebra the generators generate.

    Grows a basis from I and the generators, multiplying on the right only
    the words that enlarged the span; the span is the same over every field
    in which the entries live, and is computed modulo two primes, which
    must agree.
    """
    dims = []
    for p in _PRIMES:
        w = _root_of_unity(p)
        powers = np.array([pow(w, k, p) for k in range(PHASES)], dtype=np.int64)

        def vec(m):
            v = np.zeros(n * n, dtype=np.int64)
            for j, c in enumerate(m):
                if c >= 0:
                    v[(c // PHASES) * n + j] = powers[c % PHASES]
            return v

        pivots: list[tuple[int, np.ndarray]] = []

        def grow(m) -> bool:
            v = vec(m)
            for pivot, row in pivots:
                if v[pivot]:
                    v = (v - v[pivot] * row) % p
            nz = np.nonzero(v)[0]
            if not nz.size:
                return False
            lead = int(nz[0])
            pivots.append((lead, (v * pow(int(v[lead]), p - 2, p)) % p))
            return True

        frontier = [m for m in [mono_identity(n)] + list(gens) if grow(m)]
        while frontier and len(pivots) < n * n:
            fresh = []
            for m in frontier:
                for g in gens:
                    prod = mono_product(m, g)
                    if grow(prod):
                        fresh.append(prod)
            frontier = fresh
        dims.append(len(pivots))
    if len(set(dims)) != 1:
        raise ValueError(f"span dimension differs between primes: {dims}")
    return dims[0]


def monomial_report(n: int, gens, max_elements: int, max_word_length: int) -> dict:
    """Expected `pisomlab report` fields for monomial generators.

    Unitary conjugation leaves every one of them unchanged, so they hold
    for the conjugated matrices the program is given.
    """
    base, base_limit = exact_closure(n, gens, max_elements, max_word_length)
    extended, ext_limit = exact_closure(n, with_adjoints(gens), max_elements,
                                        max_word_length)
    p_set = {initial_support(m) for m in base}
    q_set = {final_support(m) for m in base}
    retained = set(base)
    patterns: dict[tuple[bool, ...], int] = {}
    q_list = sorted(q_set, key=sorted)
    for i in range(n):
        key = tuple(i in s for s in q_list)
        patterns[key] = patterns.get(key, 0) + 1
    ranks = sorted(patterns.values(), reverse=True)
    span = span_dimension(n, gens)
    expected = {
        "base_closure": _closure_summary(base, base_limit),
        "status": "truncated" if ext_limit else "closed",
        "element_count": len(extended),
        "q_commuting": True,
        "pq_equal": p_set == q_set,
        "pq_contained": all(mono_projection(n, s) in retained for s in p_set | q_set),
        "atoms.ranks": ranks,
        "atoms.uniform": len(set(ranks)) == 1,
        "span_dim": span,
        "irreducible": span == n * n,
        "certificate.verdict": "Inconclusive" if ext_limit else "Extendable",
        "certificate.limit_hit": ext_limit,
    }
    return expected


def units_report(n: int) -> dict:
    """Closed forms for the cyclic matrix units E_{i,i+1}, E_{n,1}: the
    closure is the n^2 matrix units plus I and 0, the algebra is all of
    M_n, the atoms are the n diagonal units, and so is the Brandt family."""
    count = n * n + 2
    return {
        "base_closure": {"status": "closed", "element_count": count},
        "status": "closed",
        "element_count": count,
        "q_commuting": True,
        "pq_equal": True,
        "pq_contained": True,
        "atoms.ranks": [1] * n,
        "atoms.uniform": True,
        "span_dim": n * n,
        "irreducible": True,
        "brandt.family_ranks": [1] * n,
        "certificate.verdict": "Extendable",
        "certificate.limit_hit": None,
    }


def barnes_report(order: int) -> dict:
    """I_n has sum_k C(n,k)^2 k! elements; its Barnes image is injective
    and closed under products and adjoints."""
    from math import comb, factorial
    size = sum(comb(order, k) ** 2 * factorial(k) for k in range(order + 1))
    return {"n": size, "valid": True, "injective": True,
            "all_partial_isometries": True,
            "closure_status": "closed", "closure_elements": size}


def free_group_census(max_elements: int) -> dict[int, int]:
    """Reduced words over a, b, a*, b* in shortest-first order, cut after
    max_elements: length 0 holds 1 word and length k holds 4 * 3^(k-1)."""
    census = {}
    left = max_elements
    k = 0
    while left > 0:
        full = 1 if k == 0 else 4 * 3 ** (k - 1)
        census[k] = min(full, left)
        left -= census[k]
        k += 1
    return census
