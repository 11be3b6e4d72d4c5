"""The tolerant element index: a growing stack of matrices that answers
"which member equals this matrix under approx_equal", a stack of queries at
a time, behind closures, projection families and adjunction.
"""

from __future__ import annotations

import numpy as np

from .numlin import ShapeMismatch, ToleranceConfig, as_matrix

# A near ball (radius 10 * eq_tol * max(1, norms)) spans at most two cells of
# the sketch grid when the cell width is at least twice its radius.  Partial
# isometry norms come out a few ulps above sqrt(rank), so the width is padded
# by this factor; members up to 25% above sqrt(dim) still use the grid.
_CELL_SLACK = 1.25
_EPS = float(np.finfo(float).eps)
# matrix entries per stacked chunk (closure products, store queries and their
# pairs, frame conjugations), which bounds the memory of each on large inputs
_CHUNK = 1 << 14
# dim x dim arrays held at once per query, per (query, member) pair of the
# rule or per closure product: the matrix and about three of its size (the
# member, difference and square; or the adjoint, P and Q of an element)
_HELD = 4
_NONE = np.iinfo(np.intp).max

# a lookup result: (match index | None, near pair (index, distance) | None)
Found = tuple[int | None, tuple[int, float] | None]


def _square(mat, dim: int) -> np.ndarray:
    mat = as_matrix(mat)
    if mat.shape != (dim, dim):
        raise ShapeMismatch(f"matrix shape {mat.shape}, expected {(dim, dim)}")
    return mat


def _stack(mats, dim: int) -> np.ndarray:
    return np.asarray(mats, dtype=np.complex128).reshape(-1, dim, dim)


def _chunks(count: int, dim: int, per_item: int = 1) -> list[slice]:
    """Consecutive slices of range(count), each of at most _CHUNK matrix
    entries when an item stands for per_item dim x dim matrices."""
    step = max(1, _CHUNK // max(1, per_item * dim * dim))
    return [slice(start, start + step) for start in range(0, count, step)]


def _grown(a: np.ndarray, size: int, keep: int) -> np.ndarray:
    """a as size rows, its first keep rows copied and the rest zero."""
    out = np.zeros((size,) + a.shape[1:], dtype=a.dtype)
    out[:keep] = a[:keep]
    return out


class _Queries:
    """A stack of queries to one store: their norms and sketch cells, the
    cells that cover each near radius (None: scan every member), and the
    first match and nearest near member found so far."""

    def __init__(self, store: _ElementStore, mats: np.ndarray):
        k = len(mats)
        flat = mats.reshape(k, -1)
        self.mats = mats
        self.norms = np.linalg.norm(flat, axis=1)
        sketches = (flat @ store._direction.conj()).real
        self.keys = (sketches // store._width).astype(np.int64).tolist()
        # one near radius for the stack, which also covers the members it
        # may add; padded for the rounding of both sketches and of the distances
        scale = max(1.0, store._max_norm, float(self.norms.max(initial=0.0)))
        reach = scale * (10.0 * store.cfg.eq_tol * (1.0 + 1e-6) + 8.0 * store.dim ** 2 * _EPS)
        if 2.0 * reach > store._width:
            self.cover = [None] * k
        else:
            lo = ((sketches - reach) // store._width).astype(np.int64).tolist()
            hi = ((sketches + reach) // store._width).astype(np.int64).tolist()
            self.cover = [(a,) if a == b else (a, b) for a, b in zip(lo, hi)]
        self.first = np.full(k, _NONE, dtype=np.intp)
        self.near = np.full(k, _NONE, dtype=np.intp)
        self.near_dist = np.full(k, np.inf)

    def found(self, i: int) -> Found:
        if self.first[i] != _NONE:
            return int(self.first[i]), None
        if self.near[i] != _NONE:
            return None, (int(self.near[i]), float(self.near_dist[i]))
        return None, None


class _ElementStore:
    """Growing matrix stack with vectorized tolerance dedup: the one
    tolerance-aware set behind closures, projection families and adjunction.

    A query matches the first retained element (in insertion order) within
    eq_tol under the approx_equal rule ||a-b|| <= eq_tol * max(1, ||a||, ||b||);
    retained elements that come within 10x of that band are flagged as
    tolerance-chain risks.  Queries come in stacks, with one sketch and norm
    pass per stack, and one rule (_resolve) over (query, member) pairs.

    Candidates come from a grid over the sketch s(M) = Re<g, vec M> with g a
    fixed unit vector, so |s(a) - s(b)| <= ||a - b||: every member within the
    near radius R of a query lies in one of the (at most two) cells that
    cover [s - R, s + R].  A stack whose R exceeds half a cell (members or a
    query of large norm, or an eq_tol near rounding) scans every member.
    """

    def __init__(self, dim: int, cfg: ToleranceConfig, mats=()):
        self.dim = dim
        self.cfg = cfg
        self._buf = np.zeros((64, dim, dim), dtype=np.complex128)
        self._norms = np.zeros(64)
        self._keys = np.zeros(64, dtype=np.int64)
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

    def lookup(self, mat: np.ndarray) -> Found:
        """-> (match index | None, near-pair (index, distance) | None)."""
        return self.lookup_batch(mat[None])[0]

    def lookup_batch(self, mats) -> list[Found]:
        """lookup of each of a sequence of dim x dim matrices."""
        out: list[Found] = []
        for part in _chunks(len(mats), self.dim, _HELD):
            queries = self._queries(_stack(mats[part], self.dim))
            out += [queries.found(i) for i in range(len(queries.mats))]
        return out

    def add_batch(self, mats, room: int | None = None) -> list[Found]:
        """Look up each of a sequence of dim x dim matrices, in order, against
        the store as it stands at its turn, and append each that matches
        nothing while fewer than room members are held.  -> one lookup
        result per matrix, ending at the first new one that found no room."""
        out: list[Found] = []
        for part in _chunks(len(mats), self.dim, _HELD):
            queries = self._queries(_stack(mats[part], self.dim))
            first, near = queries.first.tolist(), queries.near.tolist()
            near_dist, norms, keys = queries.near_dist.tolist(), queries.norms.tolist(), queries.keys
            start = self.count
            # the chunk's new members get their cells and indices at their
            # turn, but reach the buffers in one write (flush) before anything
            # reads them
            new: list[int] = []
            touched: set[int] = set()

            def flush() -> None:
                if new:
                    self._write(self.count - len(new), queries.mats[new],
                                [norms[i] for i in new], [keys[i] for i in new])
                    new.clear()

            for i, cover in enumerate(queries.cover):
                if first[i] != _NONE:
                    out.append((first[i], None))
                    continue
                found: Found = (None, (near[i], near_dist[i]) if near[i] != _NONE else None)
                if touched and (cover is None or not touched.isdisjoint(cover)):
                    # a member this batch appended may lie within reach: a copy
                    # of one is its first match, since at its own turn it
                    # matched nothing; otherwise look it up against the store
                    # as it stands
                    flush()
                    copy = self._copy_since(start, queries.mats[i], cover)
                    found = (copy, None) if copy is not None else self.lookup(queries.mats[i])
                out.append(found)
                if found[0] is not None:
                    continue
                if room is not None and self.count >= room:
                    flush()
                    return out
                self._index(norms[i], keys[i])
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
        for i, cover in enumerate(queries.cover):
            if cover is None:
                self._resolve(queries, np.full(self.count, i), np.arange(self.count))
                continue
            for key in cover:
                found = self._cells.get(key)
                if found:
                    ms += found
                    qs += [i] * len(found)
        if qs:
            self._resolve(queries, np.array(qs), np.array(ms))
        return queries

    def _resolve(self, queries: _Queries, qs: np.ndarray, ms: np.ndarray) -> None:
        """The matching rule on (query, member) index pairs, folded into the
        queries: a member within eq_tol * max(1, ||q||, ||m||) of its query
        matches it, one within 10x that band is near it; each query keeps
        its first match and its nearest near member, ties to the lower
        index."""
        tol = self.cfg.eq_tol
        for part in _chunks(len(qs), self.dim, _HELD):
            q, m = qs[part], ms[part]
            norm_q, norm_m = queries.norms[q], self._norms[m]
            scale = np.maximum(1.0, np.maximum(norm_m, norm_q))
            band = np.abs(norm_m - norm_q) <= 10.0 * tol * scale
            q, m, scale = q[band], m[band], scale[band]
            diffs = (self._buf[m] - queries.mats[q]).reshape(q.size, self.dim * self.dim)
            dists = np.linalg.norm(diffs, axis=1)
            hit = dists <= tol * scale
            np.minimum.at(queries.first, q[hit], m[hit])
            near = ~hit & (dists <= 10.0 * tol * scale)
            q, m, dists = q[near], m[near], dists[near]
            if not q.size:
                continue
            # the nearest member of each query, ties to the lower index
            order = np.lexsort((m, dists, q))
            q, m, dists = q[order], m[order], dists[order]
            lead = np.r_[True, q[1:] != q[:-1]]
            q, m, dists = q[lead], m[lead], dists[lead]
            best = queries.near_dist[q]
            better = (dists < best) | ((dists == best) & (m < queries.near[q]))
            queries.near[q[better]] = m[better]
            queries.near_dist[q[better]] = dists[better]

    def append(self, mat: np.ndarray) -> int:
        queries = _Queries(self, _stack(mat, self.dim))
        member = self._index(float(queries.norms[0]), queries.keys[0])
        self._write(member, queries.mats, queries.norms, queries.keys)
        return member

    def _index(self, norm: float, key: int) -> int:
        """Give the next member its index and its cell entry."""
        self._max_norm = max(self._max_norm, norm)
        self._cells.setdefault(key, []).append(self.count)
        self.count += 1
        return self.count - 1

    def _write(self, start: int, mats: np.ndarray, norms, keys) -> None:
        """Write indexed members from index start on into the buffers,
        doubling them until they fit."""
        end = start + len(mats)
        if end > len(self._buf):
            size = len(self._buf)
            while size < end:
                size *= 2
            self._buf, self._norms, self._keys = (_grown(a, size, start)
                                                  for a in (self._buf, self._norms, self._keys))
        self._buf[start:end] = mats
        self._norms[start:end] = norms
        self._keys[start:end] = keys

    def truncate(self, count: int) -> None:
        """Drop the members appended after the first count; each is the last
        index of its cell.  The largest member norm stays an upper bound."""
        while self.count > count:
            self.count -= 1
            self._cells[int(self._keys[self.count])].pop()

    def find(self, mat) -> int | None:
        return self.lookup(_square(mat, self.dim))[0]

    def stack(self) -> np.ndarray:
        """The members as one count x dim x dim array (a read-only view)."""
        members = self._buf[: self.count]
        members.flags.writeable = False
        return members

    def matrices(self) -> list[np.ndarray]:
        return list(self.stack())
