"""Semigroup engine: closure, selfadjoint closure, the P/Q set
predicates, projection enrichment, irreducibility, and Brandt structure.

Finitely generated semigroups of partial isometries can be infinite, so every
closure runs under explicit limits; Truncated is a first-class status and is
never silently promoted to Closed.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from itertools import chain
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
    first_overlap,
    frame_blocks,
    frobenius,
    frozen,
    invariant_subspaces,
    norton_test,
    partial_isometry_rule,
    proven_word_length,
    range_basis,
    spin,
    vanishing_rule,
)
from .index import _HELD, _ElementStore, _chunks, _square, _stack, _step
from .pisom import NotPartialIsometry, make_partial_isometry, partial_isometry_defect
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
    cfg: ToleranceConfig

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.named_generators)


def generator_set(named, dim: int | None = None, include_identity: bool = True,
                  include_zero: bool = False,
                  cfg: ToleranceConfig = DEFAULT_TOL) -> GeneratorSet:
    """Validate named generator matrices (each must be a partial isometry):
    the first that fails raises NotPartialIsometry, naming its index and name.

    Names must be unique and must not contain '*', which is reserved for
    adjoints in witness words; with include_zero the name '0' is reserved for
    the zero matrix.  cfg is the tolerance of every analysis of the set.
    """
    pairs = []
    seen: set[str] = set()
    for i, (name, mat) in enumerate(named):
        check_generator_name(name, seen, include_zero)
        try:
            pairs.append((name, make_partial_isometry(mat, cfg).matrix))
        except NotPartialIsometry as err:
            raise NotPartialIsometry(f"generators[{i}]: {name!r} is not a partial isometry: {err}",
                                     err.deviation) from err
    if dim is None:
        if not pairs:
            raise ShapeMismatch("empty generator set needs an explicit dimension")
        dim = pairs[0][1].shape[0]
    for name, mat in pairs:
        if mat.shape != (dim, dim):
            raise ShapeMismatch(f"generator {name!r} has shape {mat.shape}, expected {(dim, dim)}")
    return GeneratorSet(dim, tuple(pairs), include_identity, include_zero, cfg)


def check_generator_name(name, taken: set[str], include_zero: bool) -> None:
    """generator_set's name rules: ValueError unless name is a non-empty
    string without '*', other than '0' when include_zero, and not in taken;
    a valid name joins taken."""
    if not isinstance(name, str) or not name:
        raise ValueError("generator names must be non-empty strings")
    if "*" in name:
        raise ValueError(f"generator name {name!r} contains reserved character '*'")
    if include_zero and name == "0":
        raise ValueError("generator name '0' is reserved for the zero matrix")
    if name in taken:
        raise ValueError(f"duplicate generator name {name!r}")
    taken.add(name)


@dataclass(frozen=True)
class SemigroupElement:
    matrix: np.ndarray
    word: tuple[str, ...]


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


@dataclass
class ClosureResult:
    """Outcome of a closure run.

    status is CLOSED, TRUNCATED (limit_hit says which limit fired) or FAILURE
    (witness_word evaluates to a matrix V that fails partial_isometry_rule).
    witness_deviation is partial_isometry_defect(V), ||(V*V)^2 - V*V||_2, not
    the rule's ||VP - V||: a spurious singular value s of V gives about s^2
    against the rule's s, so the deviation can lie below proj_tol.  Element
    k is the store's member k with the shortest witnessing word words[k]; on
    FAILURE the elements are those retained before the abort.
    Every element is a partial isometry: close validated each but I, or
    proved that it passes (numlin.proven_word_length).
    """

    dim: int
    generators: GeneratorSet
    name_map: dict[str, np.ndarray]
    words: list[tuple[str, ...]]
    store: _ElementStore = field(repr=False, compare=False)
    status: str
    limit_hit: str | None = None
    witness_word: tuple[str, ...] | None = None
    witness_deviation: float | None = None
    # family_projections memo
    families: FamilyProjections | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.words)

    @property
    def cfg(self) -> ToleranceConfig:
        return self.generators.cfg

    def matrices(self) -> list[np.ndarray]:
        """The element matrices: read-only views of the store's stack."""
        return self.store.matrices()

    @cached_property
    def elements(self) -> list[SemigroupElement]:
        """The elements as (matrix, word) rows, the matrices read-only views
        of the store's stack, built on the first read."""
        return [SemigroupElement(m, word) for m, word in zip(self.store.stack(), self.words)]

    def find(self, mat) -> int | None:
        """Index of the first element, in insertion order, equal to mat under
        approx_equal (ShapeMismatch unless mat is dim x dim)."""
        return self.store.lookup(_square(mat, self.dim))

    def evaluate(self, word) -> np.ndarray:
        return evaluate_word(self.name_map, word, self.dim)


def close(gens: GeneratorSet, limits: Limits = DEFAULT_LIMITS) -> ClosureResult:
    """Breadth-first product closure of the generator set.

    Expansion is by right multiplication with generators, which enumerates
    every word shortest-first.  The closure reads stacks: the generators,
    then each BFS level in chunks of consecutive parents, whose products take
    one GEMM per letter.  Each stack is looked up in order against every
    element kept before it and merged by approx_equal (one add_batch), and
    its new members join the elements at once; the first past max_elements
    joins too and ends the growth.  The elements added since the last check
    are validated together (partial_isometry_rule, in stacks of
    _step(dim, _HELD)) before a level's parents are multiplied, so none
    becomes a parent unchecked, and once more at the end; those of at most
    numlin.proven_word_length letters provably pass it and are skipped,
    which leaves every result as it is.  The first that
    fails, in element order, ends the closure with a FAILURE status carrying
    a minimal-length witness word and its partial_isometry_defect, and the
    elements from it on are dropped; else those past max_elements are, and
    the closure is TRUNCATED, as it is at any limit: limits are results, not
    errors.
    """
    dim, cfg = gens.dim, gens.cfg
    name_map = dict(gens.named_generators)
    if gens.include_zero and all(frobenius(m) > 0 for m in name_map.values()):
        name_map["0"] = np.zeros((dim, dim), dtype=np.complex128)
    names = list(name_map)

    store = _ElementStore(dim, cfg)
    words: list[tuple[str, ...]] = []
    limit_hit: str | None = None
    if gens.include_identity:
        store.append(np.eye(dim, dtype=np.complex128))
        words.append(())
    gen_stack = _stack(list(name_map.values()), dim)
    letters = len(names)
    # every element of at most proven letters passes the rule
    proven = proven_word_length(gen_stack, cfg, limits.max_word_length)
    checked = len(words)    # the elements before it passed the rule, but I

    def first_failure() -> int | None:
        """The rule over the elements from checked on, past those of at
        most proven letters -> the first that fails, where checked stops (a
        level's failure is read again after the loop), or None, and checked
        moves past them."""
        nonlocal checked
        # word lengths never decrease in element order
        checked = bisect_right(words, proven, checked, key=len)
        unchecked = store.stack()[checked:]
        for part in _chunks(len(unchecked), dim, _HELD):
            valid = partial_isometry_rule(unchecked[part], cfg)[0]
            if not valid.all():
                checked += part.start + int(valid.argmin())
                return checked
        checked = store.count
        return None

    def stacks():
        """(stack, parents) for the generators, with parents None, and then
        every parent chunk, whose product p is element parents[p // letters]
        times letter p % letters."""
        nonlocal limit_hit
        yield gen_stack, None
        # the elements of a level are consecutive, with words of
        # nondecreasing length, and the store's member k is element k
        level = range(len(words))
        while level and first_failure() is None:
            parents = [k for k in level if len(words[k]) < limits.max_word_length]
            start = len(words)
            for part in _chunks(len(parents), dim, _HELD * letters):
                chunk = parents[part]
                # one GEMM per letter over the chunk's stacked rows, laid out
                # parent-major
                prods = store.stack()[chunk].reshape(-1, dim) @ gen_stack
                prods = prods.reshape(letters, len(chunk), dim, dim).transpose(1, 0, 2, 3)
                yield prods.reshape(-1, dim, dim), chunk
            if len(parents) < len(level):
                limit_hit = limit_hit or "max_word_length"
            level = range(start, len(words))

    for mats, parents in stacks():
        # each member is looked up in order and a new one joins the store at
        # once, while fewer than max_elements are held; the results end at
        # the first new one without room, which joins the store here
        new = [p for p, match in enumerate(store.add_batch(mats, limits.max_elements))
               if match is None]
        if len(new) > store.count - len(words):
            store.append(mats[new[-1]])
        words += [(words[parents[p // letters]] if parents else ()) + (names[p % letters],)
                  for p in new]
        if len(words) > limits.max_elements:
            break

    # a failure witness outranks the limit: the member past max_elements
    # passes the rule before it is dropped
    bad = first_failure()
    if bad is not None:
        witness, deviation = words[bad], partial_isometry_defect(store.stack()[bad])
        del words[bad:]
        store.truncate(bad)
        return ClosureResult(dim, gens, name_map, words, store, FAILURE, witness_word=witness,
                             witness_deviation=deviation)
    if len(words) > limits.max_elements:
        del words[limits.max_elements:]
        store.truncate(limits.max_elements)
        limit_hit = "max_elements"
    status = TRUNCATED if limit_hit else CLOSED
    return ClosureResult(dim, gens, name_map, words, store, status, limit_hit=limit_hit)


def adjoint_generator_set(gens: GeneratorSet) -> GeneratorSet:
    """Generators plus their adjoints, the adjoint of NAME named 'NAME*'.

    Adjoints already present among the generators (projections, or pairs that
    are adjoint to each other) are not duplicated.
    """
    named = list(gens.named_generators)
    known = _ElementStore(gens.dim, gens.cfg, [m for _, m in named])
    adjoints = [(name + "*", frozen(adjoint(m))) for name, m in named]
    found = known.add_batch([m for _, m in adjoints])
    named += [item for item, match in zip(adjoints, found) if match is None]
    # built directly: the public factory reserves '*' for exactly these
    # names, and close validates every generator
    return replace(gens, named_generators=tuple(named))


def selfadjoint_closure(gens: GeneratorSet, limits: Limits = DEFAULT_LIMITS) -> ClosureResult:
    """Closure of the generators together with their adjoints."""
    return close(adjoint_generator_set(gens), limits)


@dataclass(frozen=True)
class FamilyProjections:
    """A closure's P and Q families and the element map: element k's P = V*V
    is p_set.members[p_of[k]] and its Q = VV* is q_set.members[q_of[k]]."""

    p_set: ProjectionFamily
    q_set: ProjectionFamily
    p_of: np.ndarray
    q_of: np.ndarray


def same_projection_set(a, b, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Set equality of two projection lists under approx_equal."""
    a, b = list(a), list(b)
    if not a or not b:
        return not a and not b
    in_a, in_b = (_ElementStore(as_matrix(a[0]).shape[0], cfg, x) for x in (a, b))
    return all(match is not None
               for this, other in ((in_a, in_b), (in_b, in_a))
               for match in other.lookup_batch(this.stack()))


def _member_indices(store: _ElementStore, mats) -> list[int]:
    """add_batch of mats into store -> the member each matched or became."""
    new = iter(range(store.count, store.count + len(mats)))
    return [next(new) if match is None else match for match in store.add_batch(mats)]


def family_projections(c: ClosureResult) -> FamilyProjections:
    """Deduplicated initial and final projection families of all elements and
    the element map, built once per closure.  close validated every element,
    so P = V*V is formed directly.  Many elements share one P or Q, and
    add_batch looks up again a repeat of its own stack's new member, so a
    stack is no longer than the larger family so far (nor a _step of _HELD)."""
    if c.status == FAILURE:
        raise InvalidState("closure ended in a failure witness; no projection families")
    if c.families is None:
        cfg = c.cfg
        ps, qs = _ElementStore(c.dim, cfg), _ElementStore(c.dim, cfg)
        p_of, q_of = [], []
        stack, step, start = c.store.stack(), _step(c.dim, _HELD), 0
        while start < len(c):
            vs = stack[start:start + min(step, max(1, ps.count, qs.count))]
            start += len(vs)
            vh = vs.conj().transpose(0, 2, 1)
            p_of += _member_indices(ps, vh @ vs)
            q_of += _member_indices(qs, vs @ vh)
        c.families = FamilyProjections(projection_family(ps.matrices(), c.dim, cfg),
                                       projection_family(qs.matrices(), c.dim, cfg),
                                       np.array(p_of, dtype=np.intp), np.array(q_of, dtype=np.intp))
    return c.families


def _projection_proposals(c: ClosureResult, kinds: str) -> list[tuple[str, np.ndarray]]:
    """(f'{kind}[word_k]', member) for each member of c's Q and P families, as
    kinds names them, with k the first element mapped to the member (whose
    projection it is); ordered by k, and at one k as in kinds (sorted is stable)."""
    fams = family_projections(c)
    named = []
    for kind in kinds:
        fam, of = (fams.p_set, fams.p_of) if kind == "P" else (fams.q_set, fams.q_of)
        firsts = np.unique(of, return_index=True)[1]
        named += [(k, f"{kind}[{word_label(c.words[k])}]", m) for k, m in zip(firsts, fam.members)]
    return [(name, m) for _, name, m in sorted(named, key=lambda item: item[0])]


def check_pq_equal(c: ClosureResult) -> bool:
    fams = family_projections(c)
    return same_projection_set(fams.p_set.members, fams.q_set.members, c.cfg)


def check_pq_contained(c: ClosureResult) -> bool:
    fams = family_projections(c)
    found = c.store.lookup_batch(list(fams.p_set.members) + list(fams.q_set.members))
    return all(match is not None for match in found)


def _fresh_name(base: str, taken: set[str]) -> str:
    base = base.replace("*", "'")
    name = base
    k = 1
    while name in taken:
        name = f"{base}#{k}"
        k += 1
    return name


def _adjoin_until_fixed(c: ClosureResult, propose, limits: Limits,
                        q_atoms: AtomDecomposition | None = None) -> ClosureResult:
    """Adjoin every proposed matrix that is not yet an element and re-close
    until nothing is missing; c itself when nothing is.

    propose(closure) yields (name, matrix) pairs; names are made fresh.  A
    failure witness or truncation found along the way is returned as-is.
    With q_atoms, a closed result must keep that Boolean algebra of Q.
    """
    current = c
    for _ in range(64):
        taken = set(current.name_map)
        proposed = [(base, _square(mat, current.dim)) for base, mat in propose(current)]
        found = current.store.lookup_batch([mat for _, mat in proposed])
        fresh = [item for item, match in zip(proposed, found) if match is None]
        pending = _ElementStore(current.dim, current.cfg)
        missing: list[tuple[str, np.ndarray]] = []
        for (base, mat), match in zip(fresh, pending.add_batch([m for _, m in fresh])):
            if match is not None:
                continue
            name = _fresh_name(base, taken)
            taken.add(name)
            missing.append((name, np.asarray(mat)))
        if not missing:
            break
        # validate only the new ones: current generators may be adjoints 'NAME*'
        added = generator_set(missing, dim=current.dim, cfg=current.cfg)
        gens = replace(current.generators,
                       named_generators=current.generators.named_generators + added.named_generators)
        current = close(gens, limits)
        if current.status != CLOSED:
            return current
    else:
        raise InvariantViolation("projection adjunction did not stabilize")
    if q_atoms is not None:
        after = boolean_atoms(family_projections(current).q_set)
        if not same_projection_set(q_atoms.atoms, after.atoms, current.cfg):
            raise InvariantViolation("adjunction changed the Boolean algebra of Q")
    return current


def _commuting_q(c: ClosureResult) -> ProjectionFamily:
    q_set = family_projections(c).q_set
    if not q_set.is_commuting():
        raise NonCommutingQ("final projections do not commute")
    return q_set


def adjoin_final_projections(c: ClosureResult,
                             limits: Limits = DEFAULT_LIMITS) -> ClosureResult:
    """Adjoin Q_T for every element and re-close, iterated to a fixed point.

    On success every element's final projection is itself an element and the
    Boolean algebra generated by the Q family is unchanged (this is asserted
    by recomputing the atoms).  A failure witness or truncation found along
    the way is returned as-is.  Each Q member is proposed once, named after
    the first element whose Q it is.
    """
    atoms = boolean_atoms(_commuting_q(c))
    return _adjoin_until_fixed(c, lambda cur: _projection_proposals(cur, "Q"), limits, atoms)


def adjoin_algebra_projections(c: ClosureResult, atoms: AtomDecomposition,
                               limits: Limits = DEFAULT_LIMITS) -> ClosureResult:
    """Adjoin every atom of the Q algebra that is not yet an element and
    re-close; c itself is returned when nothing is missing.

    Atoms generate all standard projections multiplicatively, so adjoining
    them realizes adjoining every projection of the algebra.  On a closed
    result the atom set is re-derived and compared; a change would violate
    the algebra-preservation guarantee.
    """
    _commuting_q(c)
    named_atoms = [(f"E{i}", atom) for i, atom in enumerate(atoms.atoms)]
    return _adjoin_until_fixed(c, lambda _: named_atoms, limits, atoms)


def enrich_projections(gens: GeneratorSet, limits: Limits = DEFAULT_LIMITS) -> ClosureResult:
    """Fixed point of adjoining both initial and final projections.

    Constructive stand-in for the maximal extensions produced by transfinite
    arguments: alternately adjoin every P and Q that is not yet an element
    and re-close until nothing is missing.  Unlike the Q-only
    adjunction this may enlarge the Q algebra unless the uniform-multiplicity
    hypothesis holds, so no algebra-preservation assertion is made here.
    Each member is proposed once, in the order of its first element, Q first.
    """
    result = close(gens, limits)
    if result.status != CLOSED:
        return result
    return _adjoin_until_fixed(result, lambda cur: _projection_proposals(cur, "QP"), limits)


@dataclass(frozen=True)
class IrreducibilityResult:
    irreducible: bool
    span_dim: int
    _search: Callable[[], Subspace | None] = field(repr=False, compare=False)

    @cached_property
    def witness(self) -> Subspace | None:
        """An invariant subspace, searched for on the first read."""
        return self._search()


def is_irreducible(gens: GeneratorSet, seed: int = 0) -> IrreducibilityResult:
    """Burnside test: the unital algebra spanned by the semigroup is the full
    matrix algebra iff its linear span has dimension n^2.

    Norton's test (numlin.norton_test) decides most irreducible inputs
    without the span: both of its spins full means span_dim = n^2.  Every
    other input spins I under the generators: the span of words.  When
    reducible, the witness is the first subspace that passes _is_invariant
    among Norton's proper spin and then numlin.invariant_subspaces of the
    basis vectors and 32 seeded random unit vectors, so a witness that
    Norton's test gives costs no further spins.  Absence of a witness never
    weakens the dimension-based verdict.
    """
    n, cfg = gens.dim, gens.cfg
    mats = _stack([m for _, m in gens.named_generators], n)
    spun = norton_test(mats, cfg, seed)
    if spun is not None and spun.dim == n:
        return IrreducibilityResult(True, n * n, lambda: None)
    span_dim = spin(np.eye(n, dtype=np.complex128)[None], mats, cfg).dim
    if span_dim == n * n:
        return IrreducibilityResult(True, span_dim, lambda: None)

    def search() -> Subspace | None:
        draws = np.random.default_rng(seed).standard_normal((32, 2, n))
        vecs = draws[:, 0] + 1j * draws[:, 1]
        candidates = [*np.eye(n, dtype=np.complex128),
                      *(vecs / np.linalg.norm(vecs, axis=1, keepdims=True))]
        found = chain([] if spun is None else [spun],
                      invariant_subspaces(mats, candidates, candidates, cfg))
        return next((sub for sub in found if _is_invariant(sub.basis, mats, n, cfg)), None)

    return IrreducibilityResult(False, span_dim, search)


def _is_invariant(basis: np.ndarray, mats, n: int, cfg: ToleranceConfig) -> bool:
    """Whether every leak (I - BB*)·g·B, g in mats, vanishes against ||g||."""
    leaks = (np.eye(n) - basis @ adjoint(basis)) @ mats @ basis
    return bool(vanishing_rule(np.sqrt(_squared_norms(leaks)), np.sqrt(_squared_norms(mats)),
                               cfg).all())


def check_asb_nonzero(gens: GeneratorSet, a, b) -> bool:
    """Does some element w of the semigroup satisfy a·w·b != 0?

    The vectors w·x, for w in the semigroup and x in range(b), span the spin
    of range(b) under the generators, or of its images g·x when the semigroup
    has no identity.  True iff a B does not vanish against ||a||
    (numlin.vanishing_rule) for an orthonormal basis B of that span: an
    answer for words of every length.
    """
    n, cfg = gens.dim, gens.cfg
    a, b = _square(a, n), _square(b, n)
    if vanishing_rule([frobenius(a), frobenius(b)], 0.0, cfg).any():
        raise NonzeroRequired("a and b must both be nonzero")
    # row vectors: x -> g·x is right multiplication by g^T
    right = _stack([m for _, m in gens.named_generators], n).transpose(0, 2, 1)
    seeds = range_basis(b, cfg).basis.T
    if not gens.include_identity:
        seeds = (seeds @ right).reshape(-1, n)
    span = spin(seeds, right, cfg)
    return not vanishing_rule(frobenius(a @ span.basis), frobenius(a), cfg)


@dataclass(frozen=True)
class BrandtFamilyMember:
    """A minimal projection E, the index of its loop element (P = Q = E) in
    the closure and an orthonormal basis of its range, rank columns wide."""

    projection: np.ndarray
    rank: int
    loop: int
    basis: np.ndarray


@dataclass(frozen=True)
class BrandtStructure:
    """Orthogonal family of minimal projections with loop partial isometries,
    certifying the matrix-unit (Brandt) shape of the ambient semigroup."""

    dim: int
    family: tuple[BrandtFamilyMember, ...]
    checks: dict[str, bool]
    cfg: ToleranceConfig

    @property
    def family_ranks(self) -> tuple[int, ...]:
        return tuple(m.rank for m in self.family)


def _minimal_projections(union: np.ndarray, cfg: ToleranceConfig) -> list[np.ndarray]:
    """The members p of a k x n x n stack with no member q strictly below:
    q <= p when pq - q vanishes against max(||p||, ||q||)
    (numlin.vanishing_rule), and q < p when q <= p but not p <= q, so that
    no two members lie strictly below each other."""
    k, norms = len(union), np.sqrt(_squared_norms(union))
    below = np.array([vanishing_rule(np.sqrt(_squared_norms(p @ union - union)),
                                     np.maximum(norm, norms), cfg)
                      for p, norm in zip(union, norms)], dtype=bool).reshape(k, k)
    return [p for p, strictly in zip(union, below & ~below.T) if not strictly.any()]


_BRANDT_REASONS = ("E{i}·w·E{j} is neither zero nor a partial isometry",
                   "initial projection of E{i}·w·E{j} is not E{j}",
                   "final projection of E{i}·w·E{j} is not E{i}")


def _brandt_pair_failure(mats: np.ndarray, bases,
                         cfg: ToleranceConfig) -> tuple[int, str] | None:
    """The pair condition over a k x n x n stack: (index, reason) of the
    first element that fails it, or None.

    The family bases B_i form a unitary frame U, so E_i·W·E_j = B_i X B_j*
    for the block X = B_i* W B_j of U*WU, with the same norms.  Each block
    vanishes against ||W|| (numlin.vanishing_rule), or it passes the partial
    isometry rule with X*X = I (initial projection E_j) and XX* = I (final
    projection E_i), both under approx_equal.  The first failing element,
    its first failing (i, j) and that block's first failing test name the
    violation.
    """
    for part in _chunks(len(mats), mats.shape[1]):
        chunk = mats[part]
        x, offsets, norms = frame_blocks(chunk, bases)
        refs = np.linalg.norm(chunk.reshape(len(chunk), -1), axis=1)
        nonzero = ~vanishing_rule(norms, refs[:, None, None], cfg)
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
            return part.start + int(k), reason
    return None


def brandt_structure(c: ClosureResult) -> BrandtStructure:
    """Extract and verify the family of minimal projections with loops.

    Verification only: minimal members of the P/Q union are located, in
    order of their dominant coordinate and then of the union; a loop element
    with P = Q = E, the first in closure order, is required for each
    (NoMinimalWithLoop); the family must be orthogonal and cover the space
    (CoverageGap), and every element must pass the pair condition
    (MembershipViolation).
    """
    cfg = c.cfg
    fams = family_projections(c)
    # each P member matched no earlier one in the P store: only Q members are looked up
    p_nonzero, q_nonzero = ([proj for proj in f.members
                             if not vanishing_rule(frobenius(proj), 0.0, cfg)]
                            for f in (fams.p_set, fams.q_set))
    distinct = _ElementStore(c.dim, cfg, p_nonzero)
    distinct.add_batch(q_nonzero)
    minimal = sorted(_minimal_projections(distinct.stack(), cfg), key=dominant_index)

    # element k is a loop of minimal projection i when its P and Q members look up to i
    family = _ElementStore(c.dim, cfg, minimal)
    p_in, q_in = (family.lookup_batch(f.members) for f in (fams.p_set, fams.q_set))
    loops: dict[int, int] = {}
    for k, (p, q) in enumerate(zip(fams.p_of, fams.q_of)):
        if p_in[p] is not None and p_in[p] == q_in[q]:
            loops.setdefault(p_in[p], k)
    for i, proj in enumerate(minimal):
        if i not in loops:
            raise NoMinimalWithLoop(
                f"no element has initial = final = the minimal projection with "
                f"dominant coordinate {dominant_index(proj)}")
    bases = [range_basis(proj, cfg).basis for proj in minimal]
    members = [BrandtFamilyMember(frozen(proj), basis.shape[1], loops[i], basis)
               for i, (proj, basis) in enumerate(zip(minimal, bases))]

    overlap = first_overlap(bases, cfg)
    if overlap is not None:
        raise CoverageGap("minimal projections {} and {} are not orthogonal".format(*overlap))
    total_rank = sum(m.rank for m in members)
    if total_rank != c.dim:
        raise CoverageGap(
            f"family ranks sum to {total_rank}, not the dimension {c.dim}")

    failure = _brandt_pair_failure(c.store.stack(), bases, cfg)
    if failure is not None:
        k, reason = failure
        raise MembershipViolation(f"element {word_label(c.words[k])}: {reason}")

    checks = {"loops": True, "orthogonal": True, "coverage": True, "membership": True}
    return BrandtStructure(c.dim, tuple(members), checks, cfg)


def brandt_membership(w, s: BrandtStructure) -> bool:
    """Pair condition: every E1·w·E2 is zero or a partial isometry moving E2
    exactly onto E1."""
    mats = _square(w, s.dim)[None]
    return _brandt_pair_failure(mats, [m.basis for m in s.family], s.cfg) is None


@dataclass(frozen=True)
class IntertwiningReport:
    samples: int
    max_residual: float


def check_intertwining_identity(c: ClosureResult, samples: int, seed: int = 0,
                                max_factors: int = 4) -> IntertwiningReport:
    """Sample the conjugation identity S (Q_R1 ... Q_Rm) S* = Q_SR1 ... Q_SRm.

    Tuples are drawn uniformly from the closure elements with m <= max_factors;
    sides that fail approx_equal, eq_tol * max(1, ||lhs||, ||rhs||), raise
    IdentityViolation naming the tuple.
    """
    _commuting_q(c)
    if not len(c):
        raise InvalidState("closure has no elements to sample")
    mats = c.store.stack()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        m = int(rng.integers(1, max_factors + 1))
        s = int(rng.integers(len(c)))
        rs = [int(rng.integers(len(c))) for _ in range(m)]
        q_prod = rhs = np.eye(c.dim, dtype=np.complex128)
        for r in rs:
            sr = mats[s] @ mats[r]
            q_prod = q_prod @ (mats[r] @ adjoint(mats[r]))
            rhs = rhs @ (sr @ adjoint(sr))
        lhs = mats[s] @ q_prod @ adjoint(mats[s])
        residual = frobenius(lhs - rhs)
        worst = max(worst, residual)
        if not approx_equal(lhs, rhs, c.cfg):
            raise IdentityViolation(
                f"identity fails for S = {word_label(c.words[s])}, "
                f"R = {[word_label(c.words[r]) for r in rs]} "
                f"with residual {residual:.3e}")
    return IntertwiningReport(samples, worst)
