"""Semigroup engine: monitored closure, selfadjoint closure, the P/Q set
predicates, projection enrichment, irreducibility, and Brandt structure.

Finitely generated semigroups of partial isometries can be infinite, so every
closure runs under explicit limits; Truncated is a first-class status and is
never silently promoted to Closed.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .numlin import (
    DEFAULT_TOL,
    InvariantViolation,
    PisomError,
    ShapeMismatch,
    Subspace,
    ToleranceConfig,
    _squared_norms,
    adjoint,
    approx_equal,
    as_matrix,
    dominant_index,
    equal_rule,
    frame_blocks,
    frobenius,
    frozen,
    kernel_basis,
    pair_table,
    range_basis,
)
from .pisom import (PartialIsometry, make_partial_isometry, partial_isometry_defect,
                    partial_isometry_rule, validate_stack)
from .projlat import AtomDecomposition, ProjectionFamily, boolean_atoms, projection_family

CLOSED = "closed"
TRUNCATED = "truncated"
FAILURE = "failure"


class InvalidState(PisomError):
    pass


class NonCommutingQ(PisomError):
    pass


class NonzeroRequired(PisomError):
    pass


class NoMinimalWithLoop(PisomError):
    pass


class CoverageGap(PisomError):
    pass


class MembershipViolation(PisomError):
    pass


class IdentityViolation(PisomError):
    pass


@dataclass(frozen=True)
class Limits:
    max_elements: int = 20000
    max_word_length: int = 16

    def __post_init__(self):
        if self.max_elements < 1 or self.max_word_length < 1:
            raise ValueError("limits must be positive")


DEFAULT_LIMITS = Limits()


@dataclass(frozen=True)
class GeneratorSet:
    dim: int
    named_generators: tuple[tuple[str, np.ndarray], ...]
    include_identity: bool
    include_zero: bool
    pisoms: tuple[PartialIsometry, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.named_generators)


def generator_set(named, dim: int | None = None, include_identity: bool = True,
                  include_zero: bool = False,
                  cfg: ToleranceConfig = DEFAULT_TOL) -> GeneratorSet:
    """Validate named generator matrices (each must be a partial isometry).

    Names must be unique and must not contain '*', which is reserved for
    adjoints in witness words.
    """
    pairs = []
    pisoms = []
    seen: set[str] = set()
    for name, mat in named:
        if not isinstance(name, str) or not name:
            raise ValueError("generator names must be non-empty strings")
        if "*" in name:
            raise ValueError(f"generator name {name!r} contains reserved character '*'")
        if name in seen:
            raise ValueError(f"duplicate generator name {name!r}")
        seen.add(name)
        pi = make_partial_isometry(mat, cfg)
        pairs.append((name, pi.matrix))
        pisoms.append(pi)
    if dim is None:
        if not pairs:
            raise ShapeMismatch("empty generator set needs an explicit dimension")
        dim = pairs[0][1].shape[0]
    for name, mat in pairs:
        if mat.shape != (dim, dim):
            raise ShapeMismatch(f"generator {name!r} has shape {mat.shape}, expected {(dim, dim)}")
    return GeneratorSet(dim, tuple(pairs), include_identity, include_zero, tuple(pisoms))


@dataclass(frozen=True)
class SemigroupElement:
    matrix: np.ndarray
    word: tuple[str, ...]
    pi: PartialIsometry | None

    def require_pi(self, cfg: ToleranceConfig = DEFAULT_TOL) -> PartialIsometry:
        if self.pi is not None:
            return self.pi
        return make_partial_isometry(self.matrix, cfg)


def word_label(word: tuple[str, ...]) -> str:
    return ".".join(word) if word else "I"


def evaluate_word(name_map: dict[str, np.ndarray], word, dim: int) -> np.ndarray:
    """Replay a witness word; the empty word is the identity."""
    out = np.eye(dim, dtype=np.complex128)
    for name in word:
        if name not in name_map:
            raise KeyError(f"unknown generator name {name!r} in word")
        out = out @ name_map[name]
    return out


def _square(mat, dim: int) -> np.ndarray:
    mat = as_matrix(mat)
    if mat.shape != (dim, dim):
        raise ShapeMismatch(f"matrix shape {mat.shape}, expected {(dim, dim)}")
    return mat


# A near ball (radius 10 * eq_tol * max(1, norms)) spans at most two cells of
# the sketch grid when the cell width is at least twice its radius.  Partial
# isometry norms come out a few ulps above sqrt(rank), so the width is padded
# by this factor; members up to 25% above sqrt(dim) still use the grid.
_CELL_SLACK = 1.25
_EPS = float(np.finfo(float).eps)


class _ElementStore:
    """Growing matrix stack with vectorized tolerance dedup: the one
    tolerance-aware set behind closures, projection families and adjunction.

    A query matches the first retained element (in insertion order) within
    eq_tol under the approx_equal rule ||a-b|| <= eq_tol * max(1, ||a||, ||b||);
    retained elements that come within 10x of that band are flagged as
    tolerance-chain risks.

    Candidates come from a grid over the sketch s(M) = Re<g, vec M> with g a
    fixed unit vector, so |s(a) - s(b)| <= ||a - b||: every member within the
    near radius R of a query lies in one of the (at most two) cells that
    cover [s - R, s + R].  A query whose R exceeds half a cell (a looser tol,
    or members of large norm) scans every member instead.
    """

    def __init__(self, dim: int, cfg: ToleranceConfig, mats=()):
        self.dim = dim
        self.cfg = cfg
        self._buf = np.zeros((64, dim, dim), dtype=np.complex128)
        self._norms = np.zeros(64)
        self.count = 0
        self._max_norm = 0.0
        # the sketch direction g: fixed per dimension, from its own generator
        rng = np.random.default_rng([0x5EED, dim])
        g = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
        self._direction = g / np.linalg.norm(g)
        self._width = 20.0 * cfg.eq_tol * max(1.0, np.sqrt(dim)) * _CELL_SLACK
        self._cells: dict[int, list[int]] = {}
        for mat in mats:
            self.append(_square(mat, dim))

    def lookup(self, mat: np.ndarray, tol: float | None = None):
        """-> (match index | None, near-pair (index, distance) | None); tol
        replaces the store's eq_tol for this one query."""
        tol = self.cfg.eq_tol if tol is None else tol
        norm = frobenius(mat)
        idxs = self._candidates(mat, norm, tol)
        if idxs is None:
            idxs = range(self.count)
        if not idxs:
            return None, None
        return self._scan(mat, norm, tol, idxs)

    def _candidates(self, mat: np.ndarray, norm: float, tol: float) -> list[int] | None:
        """Ascending indices of every member that can lie within the near
        radius of mat, or None when that radius exceeds half a cell."""
        scale = max(1.0, norm, self._max_norm)
        # padded for the rounding of both sketches and of the distances
        reach = scale * (10.0 * tol * (1.0 + 1e-6) + 8.0 * self.dim ** 2 * _EPS)
        if 2.0 * reach > self._width:
            return None
        s = self._sketch(mat)
        lo = int((s - reach) // self._width)
        hi = int((s + reach) // self._width)
        found = self._cells.get(lo, [])
        if hi != lo and hi in self._cells:
            found = sorted(found + self._cells[hi])
        return found

    def _scan(self, mat: np.ndarray, norm: float, tol: float, idxs):
        """The matching rule over the members idxs (ascending): the first
        match, else the nearest member within 10x the band, ties to the
        lower index."""
        idxs = np.asarray(idxs, dtype=np.intp)
        norms = self._norms[idxs]
        scale = np.maximum(1.0, np.maximum(norms, norm))
        band = np.abs(norms - norm) <= 10.0 * tol * scale
        idxs, scale = idxs[band], scale[band]
        if idxs.size == 0:
            return None, None
        diffs = self._buf[idxs] - mat
        dists = np.linalg.norm(diffs.reshape(idxs.size, -1), axis=1)
        matches = dists <= tol * scale
        if np.any(matches):
            return int(idxs[np.argmax(matches)]), None
        near = dists <= 10.0 * tol * scale
        if np.any(near):
            pos = int(np.argmin(np.where(near, dists, np.inf)))
            return None, (int(idxs[pos]), float(dists[pos]))
        return None, None

    def _sketch(self, mat: np.ndarray) -> float:
        return float(np.vdot(self._direction, mat).real)

    def append(self, mat: np.ndarray) -> int:
        if self.count == self._buf.shape[0]:
            grown = np.zeros((2 * self.count, self.dim, self.dim), dtype=np.complex128)
            grown[: self.count] = self._buf
            self._buf = grown
            norms = np.zeros(2 * self.count)
            norms[: self.count] = self._norms
            self._norms = norms
        stored = self._buf[self.count]
        stored[...] = mat
        norm = self._norms[self.count] = frobenius(mat)
        self._max_norm = max(self._max_norm, norm)
        self._cells.setdefault(int(self._sketch(stored) // self._width), []).append(self.count)
        self.count += 1
        return self.count - 1

    def truncate(self, count: int) -> None:
        """Drop the members appended after the first count; each is the last
        index of its cell.  The largest member norm stays an upper bound."""
        while self.count > count:
            self.count -= 1
            self._cells[int(self._sketch(self._buf[self.count]) // self._width)].pop()

    def add(self, mat: np.ndarray) -> bool:
        """Append mat unless a retained element matches it; True if appended."""
        if self.lookup(mat)[0] is not None:
            return False
        self.append(mat)
        return True

    def find(self, mat, tol: float | None = None) -> int | None:
        return self.lookup(_square(mat, self.dim), tol)[0]

    def stack(self) -> np.ndarray:
        """The members as one count x dim x dim array (a view)."""
        return self._buf[: self.count]

    def matrices(self) -> list[np.ndarray]:
        return list(self.stack())


@dataclass
class ClosureResult:
    """Outcome of a monitored closure run.

    status is CLOSED, TRUNCATED (limit_hit says which limit fired) or FAILURE
    (witness_word evaluates to a matrix failing validation by
    witness_deviation in operator norm).  Elements carry one shortest
    witnessing word each; on FAILURE they are the elements retained before
    the abort.
    """

    dim: int
    generators: GeneratorSet
    name_map: dict[str, np.ndarray]
    elements: list[SemigroupElement]
    store: _ElementStore = field(repr=False, compare=False)
    status: str
    limit_hit: str | None = None
    witness_word: tuple[str, ...] | None = None
    witness_deviation: float | None = None
    near_duplicate_pairs: list[tuple[int, int, float]] = field(default_factory=list)
    # family_projections memo, keyed by ToleranceConfig
    families: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.elements)

    def matrices(self) -> list[np.ndarray]:
        return [e.matrix for e in self.elements]

    def find(self, mat, cfg: ToleranceConfig = DEFAULT_TOL) -> int | None:
        """Index of the first element, in insertion order, equal to mat under
        approx_equal with cfg.eq_tol (ShapeMismatch unless mat is dim x dim)."""
        return self.store.find(mat, cfg.eq_tol)

    def evaluate(self, word) -> np.ndarray:
        return evaluate_word(self.name_map, word, self.dim)


def close(gens: GeneratorSet, limits: Limits = DEFAULT_LIMITS,
          monitor_pi: bool = False,
          cfg: ToleranceConfig = DEFAULT_TOL) -> ClosureResult:
    """Breadth-first product closure of the generator set.

    Expansion is by right multiplication with generators, which enumerates
    every word shortest-first; each product is looked up, in generator
    order, against every element kept before it and merged by approx_equal.
    The new products of one parent are validated in one validate_stack call.
    With monitor_pi the first that fails aborts with a FAILURE status
    carrying a minimal-length witness word and its partial_isometry_defect.
    Hitting a limit yields TRUNCATED; limits are results, not errors.
    """
    dim = gens.dim
    name_map: dict[str, np.ndarray] = {}
    gen_items: list[tuple[str, np.ndarray, PartialIsometry]] = []
    for (name, mat), pi in zip(gens.named_generators, gens.pisoms):
        name_map[name] = mat
        gen_items.append((name, mat, pi))
    if gens.include_zero and all(frobenius(m) > 0 for _, m, _ in gen_items):
        zero = np.zeros((dim, dim), dtype=np.complex128)
        zpi = make_partial_isometry(zero, cfg)
        name_map["0"] = zero
        gen_items.append(("0", zero, zpi))

    store = _ElementStore(dim, cfg)
    elements: list[SemigroupElement] = []
    near_pairs: list[tuple[int, int, float]] = []
    queue: deque[int] = deque()

    def retain(mat, word, pi, near) -> None:
        """Keep the store's member len(elements) as the next element."""
        if near is not None:
            near_pairs.append((near[0], len(elements), near[1]))
        elements.append(SemigroupElement(frozen(mat) if pi is None else pi.matrix,
                                         word, pi))
        queue.append(len(elements) - 1)

    limit_hit: str | None = None
    if gens.include_identity:
        identity = np.eye(dim, dtype=np.complex128)
        store.append(identity)
        retain(identity, (), make_partial_isometry(identity, cfg), None)
    for name, mat, pi in gen_items:
        match, near = store.lookup(mat)
        if match is None:
            if len(elements) >= limits.max_elements:
                limit_hit = "max_elements"
                break
            store.append(mat)
            retain(mat, (name,), pi, near)
    gen_stack = np.array([mat for _, mat, _ in gen_items],
                         dtype=np.complex128).reshape(-1, dim, dim)
    while queue and limit_hit != "max_elements":
        elem = elements[queue.popleft()]
        if len(elem.word) >= limits.max_word_length:
            limit_hit = limit_hit or "max_word_length"
            continue
        # each product of this parent is looked up in generator order and a
        # new one joins the store at once; the new ones are then validated
        # together.  The first new product beyond max_elements is validated
        # but not stored, since a failure witness outranks the limit.
        prods = elem.matrix @ gen_stack
        new: list[tuple[int, tuple[int, float] | None]] = []
        for i, prod in enumerate(prods):
            match, near = store.lookup(prod)
            if match is None:
                new.append((i, near))
                if store.count >= limits.max_elements:
                    break
                store.append(prod)
        if not new:
            continue
        pis = validate_stack(prods[[i for i, _ in new]], cfg)
        for (i, near), pi in zip(new, pis):
            word = elem.word + (gen_items[i][0],)
            if pi is None and monitor_pi:
                store.truncate(len(elements))
                return ClosureResult(
                    dim, gens, name_map, elements, store, FAILURE,
                    witness_word=word, witness_deviation=partial_isometry_defect(prods[i]),
                    near_duplicate_pairs=near_pairs)
            if len(elements) >= limits.max_elements:
                limit_hit = "max_elements"
                break
            retain(prods[i], word, pi, near)

    status = TRUNCATED if limit_hit else CLOSED
    return ClosureResult(dim, gens, name_map, elements, store, status,
                         limit_hit=limit_hit, near_duplicate_pairs=near_pairs)


def adjoint_generator_set(gens: GeneratorSet,
                          cfg: ToleranceConfig = DEFAULT_TOL) -> GeneratorSet:
    """Generators plus their adjoints, the adjoint of NAME named 'NAME*'.

    Adjoints already present among the generators (projections, or pairs that
    are adjoint to each other) are not duplicated.
    """
    named = list(gens.named_generators)
    pisoms = list(gens.pisoms)
    known = _ElementStore(gens.dim, cfg, [m for _, m in named])
    for (name, mat), pi in zip(gens.named_generators, gens.pisoms):
        adj = pi.adjoint()
        if known.add(adj.matrix):
            named.append((name + "*", adj.matrix))
            pisoms.append(adj)
    # built directly: adjoints of validated partial isometries need no re-check,
    # and the public factory reserves '*' for exactly these names
    return GeneratorSet(gens.dim, tuple(named), gens.include_identity,
                        gens.include_zero, tuple(pisoms))


def selfadjoint_closure(gens: GeneratorSet, limits: Limits = DEFAULT_LIMITS,
                        cfg: ToleranceConfig = DEFAULT_TOL) -> ClosureResult:
    """Monitored closure of the generators together with their adjoints."""
    return close(adjoint_generator_set(gens, cfg), limits, monitor_pi=True, cfg=cfg)


@dataclass(frozen=True)
class FamilyProjections:
    p_set: ProjectionFamily
    q_set: ProjectionFamily


def same_projection_set(a, b, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Set equality of two projection lists under approx_equal."""
    a, b = list(a), list(b)
    if not a or not b:
        return not a and not b
    in_a, in_b = (_ElementStore(as_matrix(a[0]).shape[0], cfg, x) for x in (a, b))
    return (all(in_b.find(p) is not None for p in a)
            and all(in_a.find(q) is not None for q in b))


def family_projections(c: ClosureResult,
                       cfg: ToleranceConfig = DEFAULT_TOL) -> FamilyProjections:
    """Deduplicated initial and final projection families of all elements,
    built once per closure and tolerance configuration."""
    if c.status == FAILURE:
        raise InvalidState("closure ended in a failure witness; no projection families")
    fams = c.families.get(cfg)
    if fams is None:
        ps, qs = _ElementStore(c.dim, cfg), _ElementStore(c.dim, cfg)
        for e in c.elements:
            pi = e.require_pi(cfg)
            ps.add(pi.initial)
            qs.add(pi.final)
        fams = c.families[cfg] = FamilyProjections(
            projection_family(ps.matrices(), c.dim, cfg),
            projection_family(qs.matrices(), c.dim, cfg))
    return fams


def check_pq_equal(c: ClosureResult, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    fams = family_projections(c, cfg)
    return same_projection_set(fams.p_set.members, fams.q_set.members, cfg)


def check_pq_contained(c: ClosureResult, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    fams = family_projections(c, cfg)
    for proj in list(fams.p_set.members) + list(fams.q_set.members):
        if c.find(proj, cfg) is None:
            return False
    return True


def _fresh_name(base: str, taken: set[str]) -> str:
    base = base.replace("*", "'")
    name = base
    k = 1
    while name in taken:
        name = f"{base}#{k}"
        k += 1
    return name


def _adjoin_until_fixed(c: ClosureResult, propose, limits: Limits,
                        cfg: ToleranceConfig,
                        q_atoms: AtomDecomposition | None = None) -> ClosureResult:
    """Adjoin every proposed matrix that is not yet an element and re-close
    (monitored) until nothing is missing; c itself when nothing is.

    propose(closure) yields (name, matrix) pairs; names are made fresh.  A
    failure witness or truncation found along the way is returned as-is.
    With q_atoms, a closed result must keep that Boolean algebra of Q.
    """
    current = c
    for _ in range(64):
        taken = set(current.name_map)
        pending = _ElementStore(current.dim, cfg)
        missing: list[tuple[str, np.ndarray]] = []
        for base, mat in propose(current):
            if current.find(mat, cfg) is not None or not pending.add(mat):
                continue
            name = _fresh_name(base, taken)
            taken.add(name)
            missing.append((name, np.asarray(mat)))
        if not missing:
            break
        # validate only the new ones: current generators may be adjoints 'NAME*'
        added = generator_set(missing, dim=current.dim, cfg=cfg)
        gens = replace(current.generators,
                       named_generators=current.generators.named_generators + added.named_generators,
                       pisoms=current.generators.pisoms + added.pisoms)
        current = close(gens, limits, monitor_pi=True, cfg=cfg)
        if current.status != CLOSED:
            return current
    else:
        raise InvariantViolation("projection adjunction did not stabilize")
    if q_atoms is not None:
        after = boolean_atoms(family_projections(current, cfg).q_set, cfg)
        if not same_projection_set(q_atoms.atoms, after.atoms, cfg):
            raise InvariantViolation("adjunction changed the Boolean algebra of Q")
    return current


def _commuting_q(c: ClosureResult, cfg: ToleranceConfig) -> ProjectionFamily:
    q_set = family_projections(c, cfg).q_set
    if not q_set.is_commuting(cfg):
        raise NonCommutingQ("final projections do not commute")
    return q_set


def adjoin_final_projections(c: ClosureResult, limits: Limits = DEFAULT_LIMITS,
                             cfg: ToleranceConfig = DEFAULT_TOL) -> ClosureResult:
    """Adjoin Q_T for every element and re-close, iterated to a fixed point.

    On success every element's final projection is itself an element and the
    Boolean algebra generated by the Q family is unchanged (this is asserted
    by recomputing the atoms).  A failure witness or truncation found along
    the way is returned as-is.
    """
    def finals(current):
        for e in current.elements:
            yield f"Q[{word_label(e.word)}]", e.require_pi(cfg).final

    atoms = boolean_atoms(_commuting_q(c, cfg), cfg)
    return _adjoin_until_fixed(c, finals, limits, cfg, atoms)


def adjoin_algebra_projections(c: ClosureResult, atoms: AtomDecomposition,
                               limits: Limits = DEFAULT_LIMITS,
                               cfg: ToleranceConfig = DEFAULT_TOL) -> ClosureResult:
    """Adjoin every atom of the Q algebra that is not yet an element and
    re-close, monitored; c itself is returned when nothing is missing.

    Atoms generate all standard projections multiplicatively, so adjoining
    them realizes adjoining every projection of the algebra.  On a closed
    result the atom set is re-derived and compared; a change would violate
    the algebra-preservation guarantee.
    """
    _commuting_q(c, cfg)
    named_atoms = [(f"E{i}", atom) for i, atom in enumerate(atoms.atoms)]
    return _adjoin_until_fixed(c, lambda _: named_atoms, limits, cfg, atoms)


def enrich_projections(gens: GeneratorSet, limits: Limits = DEFAULT_LIMITS,
                       cfg: ToleranceConfig = DEFAULT_TOL) -> ClosureResult:
    """Fixed point of adjoining both initial and final projections.

    Constructive stand-in for the maximal extensions produced by transfinite
    arguments: alternately adjoin every P and Q that is not yet an element
    and re-close (monitored) until nothing is missing.  Unlike the Q-only
    adjunction this may enlarge the Q algebra unless the uniform-multiplicity
    hypothesis holds, so no algebra-preservation assertion is made here.
    """
    def projections(current):
        for e in current.elements:
            pi = e.require_pi(cfg)
            yield f"Q[{word_label(e.word)}]", pi.final
            yield f"P[{word_label(e.word)}]", pi.initial

    result = close(gens, limits, monitor_pi=True, cfg=cfg)
    if result.status != CLOSED:
        return result
    return _adjoin_until_fixed(result, projections, limits, cfg)


@dataclass(frozen=True)
class IrreducibilityResult:
    irreducible: bool
    span_dim: int
    _search: Callable[[], Subspace | None] = field(repr=False, compare=False)

    @cached_property
    def witness(self) -> Subspace | None:
        """An invariant subspace, searched for on the first read."""
        return self._search()


def is_irreducible(gens: GeneratorSet, cfg: ToleranceConfig = DEFAULT_TOL,
                   seed: int = 0) -> IrreducibilityResult:
    """Burnside test: the unital algebra spanned by the semigroup is the full
    matrix algebra iff its linear span has dimension n^2.

    When reducible, a best-effort invariant subspace is extracted from orbits
    of basis and seeded random vectors under the algebra, and from the
    orthocomplement trick applied to the adjoint algebra.  Absence of a
    witness never weakens the dimension-based verdict.
    """
    n = gens.dim
    gen_mats = [m for _, m in gens.named_generators]
    # orthonormal rows of the span found so far: rows[:span_dim]
    rows = np.zeros((n * n, n * n), dtype=np.complex128)
    span_dim = 0
    span_mats: list[np.ndarray] = []

    def grow(mat: np.ndarray) -> bool:
        nonlocal span_dim
        v = mat.reshape(-1)
        nv = float(np.linalg.norm(v))
        if nv <= cfg.eq_tol:
            return False
        resid = v.astype(np.complex128)
        basis = rows[:span_dim]
        for _ in range(2):
            if span_dim:
                resid = resid - basis.T @ (basis @ resid.conj()).conj()
        rn = float(np.linalg.norm(resid))
        if rn <= cfg.rank_tol * max(1.0, nv):
            return False
        rows[span_dim] = resid / rn
        span_dim += 1
        span_mats.append(mat)
        return True

    frontier: list[np.ndarray] = []
    for mat in [np.eye(n, dtype=np.complex128)] + gen_mats:
        if grow(mat):
            frontier.append(mat)
    while frontier and span_dim < n * n:
        fresh: list[np.ndarray] = []
        for mat in frontier:
            for g in gen_mats:
                cand = mat @ g
                if grow(cand):
                    fresh.append(cand)
                    if span_dim == n * n:
                        break
            if span_dim == n * n:
                break
        frontier = fresh

    if span_dim == n * n:
        return IrreducibilityResult(True, span_dim, lambda: None)
    return IrreducibilityResult(
        False, span_dim,
        lambda: _invariant_subspace_witness(gen_mats, span_mats, n, cfg, seed))


def _is_invariant(basis: np.ndarray, gen_mats, n: int, cfg: ToleranceConfig) -> bool:
    proj = basis @ adjoint(basis)
    comp = np.eye(n) - proj
    for g in gen_mats:
        if frobenius(comp @ g @ basis) > cfg.eq_tol * max(1.0, frobenius(g)) * 10.0:
            return False
    return True


def _invariant_subspace_witness(gen_mats, span_mats, n: int,
                                cfg: ToleranceConfig, seed: int) -> Subspace | None:
    rng = np.random.default_rng(seed)
    candidates = [np.eye(n, dtype=np.complex128)[:, i] for i in range(n)]
    for _ in range(32):
        vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        candidates.append(vec / np.linalg.norm(vec))
    # orbits under the algebra itself
    for x in candidates:
        orbit = np.column_stack([m @ x for m in span_mats])
        sub = range_basis(orbit, cfg)
        if 0 < sub.dim < n and _is_invariant(sub.basis, gen_mats, n, cfg):
            return sub
    # orthocomplements of adjoint-algebra orbits are invariant for the originals
    adj_span = [adjoint(m) for m in span_mats]
    for x in candidates:
        orbit = np.column_stack([m @ x for m in adj_span])
        sub = range_basis(orbit, cfg)
        if 0 < sub.dim < n:
            comp = kernel_basis(adjoint(sub.basis), cfg)
            if 0 < comp.dim < n and _is_invariant(comp.basis, gen_mats, n, cfg):
                return comp
    return None


def check_asb_nonzero(gens: GeneratorSet, a, b,
                      cfg: ToleranceConfig = DEFAULT_TOL,
                      limits: Limits = Limits(2000, 8)) -> bool:
    """Does some word w (up to the limits) satisfy a·w·b != 0?

    A False answer only certifies absence up to the searched word length.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if frobenius(a) <= cfg.eq_tol or frobenius(b) <= cfg.eq_tol:
        raise NonzeroRequired("a and b must both be nonzero")
    scale = max(1.0, frobenius(a), frobenius(b))
    result = close(gens, limits, monitor_pi=False, cfg=cfg)
    for e in result.elements:
        if frobenius(a @ e.matrix @ b) > cfg.eq_tol * scale:
            return True
    return False


@dataclass(frozen=True)
class BrandtFamilyMember:
    """A minimal projection E, its loop (P = Q = E) and an orthonormal basis
    of its range."""

    projection: np.ndarray
    rank: int
    loop: SemigroupElement
    basis: np.ndarray


@dataclass(frozen=True)
class BrandtStructure:
    """Orthogonal family of minimal projections with loop partial isometries,
    certifying the matrix-unit (Brandt) shape of the ambient semigroup."""

    dim: int
    family: tuple[BrandtFamilyMember, ...]
    checks: dict[str, bool]

    @property
    def family_ranks(self) -> tuple[int, ...]:
        return tuple(m.rank for m in self.family)


def _minimal_projections(union: np.ndarray, cfg: ToleranceConfig) -> list[np.ndarray]:
    """The members p of a k x n x n stack with no member q strictly below:
    pq = q within proj_tol * max(1, ||q||, ||p||) and q != p by equal_rule."""
    norms = np.sqrt(_squared_norms(union))
    minimal = []
    for p, norm in zip(union, norms):
        below = (np.sqrt(_squared_norms(p @ union - union))
                 <= cfg.proj_tol * np.maximum(max(1.0, norm), norms))
        if not np.any(below & ~equal_rule(union, p, cfg)):
            minimal.append(p)
    return minimal


# matrix entries per conjugated chunk of elements, which bounds the memory
# of the pair check on large closures
_BRANDT_CHUNK = 1 << 14
_BRANDT_REASONS = ("E{i}·w·E{j} is neither zero nor a partial isometry",
                   "initial projection of E{i}·w·E{j} is not E{j}",
                   "final projection of E{i}·w·E{j} is not E{i}")


def _brandt_pair_failure(mats: np.ndarray, bases,
                         cfg: ToleranceConfig) -> tuple[int, str] | None:
    """The pair condition over a k x n x n stack: (index, reason) of the
    first element that fails it, or None.

    The family bases B_i form a unitary frame U, so E_i·W·E_j = B_i X B_j*
    for the block X = B_i* W B_j of U*WU, with the same norms.  Each block
    is zero (||X|| <= eq_tol * max(1, ||W||)), or it passes the partial
    isometry rule with X*X = I (initial projection E_j) and XX* = I (final
    projection E_i), both under approx_equal.  The first failing element,
    its first failing (i, j) and that block's first failing test name the
    violation.
    """
    step = max(1, _BRANDT_CHUNK // (mats.shape[1] * mats.shape[2]))
    for start in range(0, len(mats), step):
        chunk = mats[start:start + step]
        x, offsets, norms = frame_blocks(chunk, bases)
        scale = np.maximum(1.0, np.linalg.norm(chunk.reshape(len(chunk), -1), axis=1))
        nonzero = norms > cfg.eq_tol * scale[:, None, None]
        ranks = np.diff(offsets)
        shapes = sorted(set(ranks.tolist()))
        # 0: the block passes; else 1 + the index of its failing test
        code = np.zeros(norms.shape, dtype=np.int8)
        for a in shapes:
            for b in shapes:
                ks, rows, cols = np.nonzero(
                    nonzero & (ranks[:, None] == a) & (ranks[None, :] == b))
                if not ks.size:
                    continue
                blocks = x[ks[:, None, None],
                           offsets[rows][:, None, None] + np.arange(a)[:, None],
                           offsets[cols][:, None, None] + np.arange(b)]
                ok, initial = partial_isometry_rule(blocks, cfg)
                final = blocks @ blocks.conj().transpose(0, 2, 1)
                code[ks, rows, cols] = np.select(
                    [~ok, ~equal_rule(initial, np.eye(b), cfg),
                     ~equal_rule(final, np.eye(a), cfg)],
                    [1, 2, 3], 0)
        failing = np.flatnonzero(code)
        if failing.size:
            k, i, j = np.unravel_index(failing[0], code.shape)
            reason = _BRANDT_REASONS[code[k, i, j] - 1].format(i=i, j=j)
            return start + int(k), reason
    return None


def brandt_structure(c: ClosureResult,
                     cfg: ToleranceConfig = DEFAULT_TOL) -> BrandtStructure:
    """Extract and verify the family of minimal projections with loops.

    Verification only: minimal members of the P/Q union are located, in
    order of their dominant coordinate and then of the union; a loop element
    with P = Q = E, the first in closure order, is required for each
    (NoMinimalWithLoop); the family must be orthogonal and cover the space
    (CoverageGap), and every element must pass the pair condition
    (MembershipViolation).
    """
    fams = family_projections(c, cfg)
    distinct = _ElementStore(c.dim, cfg)
    for proj in fams.p_set.members + fams.q_set.members:
        if frobenius(proj) > cfg.eq_tol:
            distinct.add(proj)
    minimal = sorted(_minimal_projections(distinct.stack(), cfg), key=dominant_index)

    family = _ElementStore(c.dim, cfg, minimal)
    loops: list[SemigroupElement | None] = [None] * len(minimal)
    for e in c.elements:
        if all(loops):
            break
        pi = e.require_pi(cfg)
        # P and Q of a loop both match one E under approx_equal, so they lie
        # within 3 eq_tol * max(1, ||P||, ||Q||) <= 3 eq_tol * max(1, ||W||^2)
        # of each other; that test skips most elements before any lookup
        apart = frobenius(pi.initial - pi.final)
        if apart > 3.0 * cfg.eq_tol * max(1.0, frobenius(e.matrix) ** 2):
            continue
        k = family.lookup(pi.initial)[0]
        if k is not None and loops[k] is None and family.lookup(pi.final)[0] == k:
            loops[k] = e
    members: list[BrandtFamilyMember] = []
    for proj, loop in zip(minimal, loops):
        if loop is None:
            raise NoMinimalWithLoop(
                f"no element has initial = final = the minimal projection with "
                f"dominant coordinate {dominant_index(proj)}")
        members.append(BrandtFamilyMember(frozen(proj),
                                          int(round(float(np.trace(proj).real))), loop,
                                          range_basis(proj, cfg).basis))

    projections = np.array([m.projection for m in members]).reshape(-1, c.dim, c.dim)
    overlapping = pair_table(projections)[0] > cfg.proj_tol * c.dim
    if overlapping.any():
        i, j = np.unravel_index(np.argmax(overlapping), overlapping.shape)
        raise CoverageGap(f"minimal projections {i} and {j} are not orthogonal")
    total_rank = sum(m.rank for m in members)
    if total_rank != c.dim:
        raise CoverageGap(
            f"family ranks sum to {total_rank}, not the dimension {c.dim}")

    failure = _brandt_pair_failure(c.store.stack(), [m.basis for m in members], cfg)
    if failure is not None:
        k, reason = failure
        raise MembershipViolation(f"element {word_label(c.elements[k].word)}: {reason}")

    checks = {"loops": True, "orthogonal": True, "coverage": True, "membership": True}
    return BrandtStructure(c.dim, tuple(members), checks)


def brandt_membership(w, s: BrandtStructure,
                      cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Pair condition: every E1·w·E2 is zero or a partial isometry moving E2
    exactly onto E1."""
    mats = _square(w, s.dim)[None]
    return _brandt_pair_failure(mats, [m.basis for m in s.family], cfg) is None


@dataclass(frozen=True)
class IntertwiningReport:
    samples: int
    max_residual: float


def check_intertwining_identity(c: ClosureResult, samples: int,
                                cfg: ToleranceConfig = DEFAULT_TOL,
                                seed: int = 0,
                                max_factors: int = 4) -> IntertwiningReport:
    """Sample the conjugation identity S (Q_R1 ... Q_Rm) S* = Q_SR1 ... Q_SRm.

    Tuples are drawn uniformly from the closure elements with m <= max_factors;
    any residual above eq_tol raises IdentityViolation naming the tuple.
    """
    _commuting_q(c, cfg)
    if not c.elements:
        raise InvalidState("closure has no elements to sample")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        m = int(rng.integers(1, max_factors + 1))
        s_el = c.elements[int(rng.integers(len(c.elements)))]
        r_els = [c.elements[int(rng.integers(len(c.elements)))] for _ in range(m)]
        q_prod = np.eye(c.dim, dtype=np.complex128)
        for r in r_els:
            q_prod = q_prod @ r.require_pi(cfg).final
        lhs = s_el.matrix @ q_prod @ adjoint(s_el.matrix)
        rhs = np.eye(c.dim, dtype=np.complex128)
        for r in r_els:
            sr = s_el.matrix @ r.matrix
            rhs = rhs @ (sr @ adjoint(sr))
        residual = frobenius(lhs - rhs)
        worst = max(worst, residual)
        if not approx_equal(lhs, rhs, cfg):
            raise IdentityViolation(
                f"identity fails for S = {word_label(s_el.word)}, "
                f"R = {[word_label(r.word) for r in r_els]} "
                f"with residual {residual:.3e}")
    return IntertwiningReport(samples, worst)
