"""The tolerant element index: a growing stack of matrices that answers
"which member equals this matrix under approx_equal", a stack of queries at
a time, behind closures, projection families and adjunction.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .numlin import ShapeMismatch, ToleranceConfig, as_matrix

# A match ball (radius eq_tol * max(1, norms)) spans at most two cells of the
# sketch grid when the cell width is at least twice its radius.  Partial
# isometry norms come out a few ulps above sqrt(rank), so the width is padded
# by this factor; members up to 25% above sqrt(dim) still use the grid.
_CELL_SLACK = 1.25
_EPS = float(np.finfo(float).eps)
# matrix entries per stacked chunk (closure products, store queries and their
# pairs, frame conjugations), which bounds the memory of each on large inputs
_CHUNK = 1 << 14
# the fewest queries (or pairs of the rule) in one of the store's own stacks:
# _CHUNK alone leaves 4 at dim 32 and 1 at dim 48, where numpy call overhead
# per stack, not arithmetic, sets the cost.  It adds at most
# _FLOOR * _HELD * dim^2 entries (4.7 MB at dim 48); close's parent chunks
# stay sized by _CHUNK alone.
_FLOOR = 32
# dim x dim arrays held at once per query, per (query, member) pair of the
# rule or per closure product: the matrix and about three of its size (the
# member, difference and square; or the adjoint, P and Q of an element)
_HELD = 4
_NONE = np.iinfo(np.intp).max


def _square(mat, dim: int) -> np.ndarray:
    mat = as_matrix(mat)
    if mat.shape != (dim, dim):
        raise ShapeMismatch(f"matrix shape {mat.shape}, expected {(dim, dim)}")
    return mat


def _stack(mats, dim: int) -> np.ndarray:
    return np.asarray(mats, dtype=np.complex128).reshape(-1, dim, dim)


def _step(dim: int, per_item: int = 1, floor: int = 1) -> int:
    """Items in _CHUNK entries, an item being per_item dim x dim matrices; >= floor."""
    return max(floor, _CHUNK // max(1, per_item * dim * dim))


def _chunks(count: int, dim: int, per_item: int = 1, floor: int = 1) -> list[slice]:
    """Consecutive slices of range(count), each of _step items."""
    step = _step(dim, per_item, floor)
    return [slice(start, start + step) for start in range(0, count, step)]


def _norms(flat: np.ndarray) -> np.ndarray:
    """np.linalg.norm(flat, axis=1) by its own formula, without its dispatch."""
    return np.sqrt(np.add.reduce((flat.conj() * flat).real, axis=1))


@cache
def _directions(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The sketch direction g of a dimension, a unit vector from its own
    seeded generator, and its conjugate: built once, read-only."""
    rng = np.random.default_rng([0x5EED, dim])
    g = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
    g /= np.linalg.norm(g)
    g_conj = g.conj()
    g.setflags(write=False)
    g_conj.setflags(write=False)
    return g, g_conj


def _grown(a: np.ndarray, size: int, keep: int) -> np.ndarray:
    """a as size rows, its first keep rows copied and the rest zero."""
    out = np.zeros((size,) + a.shape[1:], dtype=a.dtype)
    out[:keep] = a[:keep]
    return out


class _Queries:
    """A stack of queries to one store: their norms and sketch cells, the
    cells that cover each match radius (None: scan every member), and the
    first match found so far."""

    def __init__(self, store: _ElementStore, mats: np.ndarray):
        k = len(mats)
        flat = mats.reshape(k, -1)
        self.mats = mats
        self.norms = _norms(flat)
        sketches = (flat @ store._direction_conj).real
        # one match radius for the stack, which also covers the members it
        # may add
        scale = max(1.0, store._max_norm, float(self.norms.max(initial=0.0)))
        reach = scale * store._reach
        if 2.0 * reach > store._width:
            # clipped, since a tiny eq_tol or a large norm can put a cell past
            # int64; a store that holds such a cell never reads the grid again
            bound = 2.0 ** 62 * store._width
            cells = np.clip(sketches, -bound, bound) // store._width
            self.keys = cells.astype(np.int64).tolist()
            self.cover = [None] * k
        else:
            # each query's cell, and the cells (lo, hi) of s - reach and
            # s + reach, which may be one cell
            cells = (np.add.outer(sketches, (0.0, -reach, reach)) // store._width)
            cells = cells.astype(np.int64).T.tolist()
            self.keys = cells[0]
            self.cover = list(zip(cells[1], cells[2]))
        self.first = [_NONE] * k

    def found(self, i: int) -> int | None:
        return None if self.first[i] == _NONE else self.first[i]


class _ElementStore:
    """Growing matrix stack with vectorized tolerance dedup: the one
    tolerance-aware set behind closures, projection families and adjunction.

    A query matches the first retained element (in insertion order) within
    eq_tol under the approx_equal rule ||a-b|| <= eq_tol * max(1, ||a||, ||b||).
    Queries come in stacks, with one sketch and norm pass per stack, and one
    rule (_resolve) over (query, member) pairs; a stack holds _CHUNK's share
    of queries, but at least _FLOOR.

    Candidates come from a grid over the sketch s(M) = Re<g, vec M> with g a
    fixed unit vector, so |s(a) - s(b)| <= ||a - b||: every member within the
    match radius R of a query lies in one of the (at most two) cells that
    cover [s - R, s + R].  A stack whose R exceeds half a cell (members or a
    query of large norm, or an eq_tol near rounding) scans every member.
    """

    def __init__(self, dim: int, cfg: ToleranceConfig, mats=()):
        self.dim = dim
        self.cfg = cfg
        self._buf = np.zeros((64, dim, dim), dtype=np.complex128)
        self._norms = np.zeros(64)
        self.count = 0
        self._max_norm = 0.0
        self._direction, self._direction_conj = _directions(dim)
        self._width = 2.0 * cfg.eq_tol * max(1.0, np.sqrt(dim)) * _CELL_SLACK
        # the match radius per unit of scale, padded for the rounding of the
        # sketches, norms and distances
        self._reach = cfg.eq_tol * (1.0 + 1e-6) + 8.0 * dim ** 2 * _EPS
        self._cells: dict[int, list[int]] = {}
        mats = [_square(mat, dim) for mat in mats]
        for part in _chunks(len(mats), dim, _HELD, _FLOOR):
            self._extend(_stack(mats[part], dim))

    def lookup(self, mat: np.ndarray) -> int | None:
        """-> the index of the first member that matches mat, or None."""
        return self._queries(_stack(mat, self.dim)).found(0)

    def lookup_batch(self, mats) -> list[int | None]:
        """lookup of each of a sequence of dim x dim matrices, in stacks of
        at least _FLOOR."""
        out: list[int | None] = []
        for part in _chunks(len(mats), self.dim, _HELD, _FLOOR):
            queries = self._queries(_stack(mats[part], self.dim))
            out += [queries.found(i) for i in range(len(queries.mats))]
        return out

    def add_batch(self, mats, room: int | None = None) -> list[int | None]:
        """Look up each of a sequence of dim x dim matrices, in order, against
        the store as it stands at its turn, and append each that matches
        nothing while fewer than room members are held.  -> one lookup
        result per matrix, ending at the first new one that found no room.
        The matrices are looked up in stacks of at least _FLOOR."""
        out: list[int | None] = []
        room = _NONE if room is None else room
        member = self.count     # the index of the next new member
        cells = self._cells
        for part in _chunks(len(mats), self.dim, _HELD, _FLOOR):
            queries = self._queries(_stack(mats[part], self.dim))
            first, norms, keys = queries.first, queries.norms.tolist(), queries.keys
            start = self.count
            # the chunk's new members join their cells at their turn, but are
            # counted and reach the buffers in one write (flush) before
            # anything reads them
            new: list[int] = []
            touched: set[int] = set()

            def flush() -> None:
                if new:
                    self._write(queries.mats[new], [norms[i] for i in new])
                    new.clear()

            for i, cover in enumerate(queries.cover):
                if first[i] != _NONE:
                    out.append(first[i])
                    continue
                found = None
                if touched and (cover is None or not touched.isdisjoint(cover)):
                    # a member this batch appended may lie within reach: a copy
                    # of one is its first match, since at its own turn it
                    # matched nothing; otherwise look it up against the store
                    # as it stands
                    flush()
                    copy = self._copy_since(start, queries.mats[i], cover)
                    found = copy if copy is not None else self.lookup(queries.mats[i])
                out.append(found)
                if found is not None:
                    continue
                if member >= room:
                    flush()
                    return out
                cells.setdefault(keys[i], []).append(member)
                member += 1
                new.append(i)
                touched.add(keys[i])
            flush()
        return out

    def _copy_since(self, start: int, mat: np.ndarray, cover) -> int | None:
        """The member from index start on, in the cover's cells (every one
        when cover is None), that equals mat entry for entry, if any."""
        if cover is None:
            members = np.arange(start, self.count)
        else:
            members = np.array([m for key in cover for m in self._cells.get(key, ()) if m >= start],
                               dtype=np.intp)
        same = members[(self._buf[members] == mat).reshape(members.size, -1).all(axis=1)]
        return int(same[0]) if same.size else None

    def _queries(self, mats: np.ndarray) -> _Queries:
        """The stack's queries, each resolved against the members present."""
        queries = _Queries(self, mats)
        qs: list[int] = []
        ms: list[int] = []
        cell = self._cells.get
        for i, cover in enumerate(queries.cover):
            if cover is None:
                self._resolve(queries, np.full(self.count, i), np.arange(self.count))
                continue
            lo, hi = cover
            found = cell(lo)
            if found:
                ms += found
                qs += [i] * len(found)
            if hi != lo and (found := cell(hi)):
                ms += found
                qs += [i] * len(found)
        if qs:
            self._resolve(queries, np.array(qs), np.array(ms))
        return queries

    def _resolve(self, queries: _Queries, qs: np.ndarray, ms: np.ndarray) -> None:
        """The matching rule on (query, member) index pairs, in stacks of at
        least _FLOOR pairs, folded into the queries: a member within
        eq_tol * max(1, ||q||, ||m||) of its query matches it, and each query
        keeps its first match (the lowest index).  Pairs whose norms differ
        by more than the padded match radius cannot match and are skipped."""
        tol, reach = self.cfg.eq_tol, self._reach
        first = queries.first
        for part in _chunks(len(qs), self.dim, _HELD, _FLOOR):
            q, m = qs[part], ms[part]
            norm_q, norm_m = queries.norms[q], self._norms[m]
            scale = np.maximum(1.0, np.maximum(norm_m, norm_q))
            band = np.abs(norm_m - norm_q) <= reach * scale
            if not band.all():
                q, m, scale = q[band], m[band], scale[band]
            diffs = (self._buf[m] - queries.mats[q]).reshape(q.size, self.dim * self.dim)
            matched = (_norms(diffs) <= tol * scale).nonzero()[0]
            for i, j in zip(q[matched].tolist(), m[matched].tolist()):
                if j < first[i]:
                    first[i] = j

    def append(self, mat: np.ndarray) -> int:
        """Add mat as a member without looking it up -> its index."""
        self._extend(_stack(mat, self.dim))
        return self.count - 1

    def _extend(self, mats: np.ndarray) -> None:
        """Add a stack as members without looking them up, in one pass and write."""
        queries = _Queries(self, mats)
        cell = self._cells.setdefault
        for member, key in enumerate(queries.keys, self.count):
            cell(key, []).append(member)
        self._write(queries.mats, queries.norms.tolist())

    def _write(self, mats: np.ndarray, norms: list[float]) -> None:
        """Count members that already joined their cells, and write them
        from index count on into the buffers, which grow by a quarter, or
        to fit."""
        start, end = self.count, self.count + len(mats)
        if end > len(self._buf):
            size = max(end, len(self._buf) + len(self._buf) // 4)
            self._buf, self._norms = (_grown(a, size, start) for a in (self._buf, self._norms))
        self._buf[start:end] = mats
        self._norms[start:end] = norms
        self.count = end
        self._max_norm = max(self._max_norm, *norms)

    def truncate(self, count: int) -> None:
        """Drop the members from index count on; each cell lists its members
        in increasing order, so they are its last.  The largest member norm
        stays an upper bound."""
        for members in self._cells.values():
            while members and members[-1] >= count:
                members.pop()
        self.count = count

    def stack(self) -> np.ndarray:
        """The members as one count x dim x dim array (a read-only view)."""
        members = self._buf[: self.count]
        members.flags.writeable = False
        return members

    def matrices(self) -> list[np.ndarray]:
        return list(self.stack())
