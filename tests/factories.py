"""Seeded instance constructors shared by the unit and acceptance tests.

Each family is designed so the relevant hypothesis holds by construction:
partial permutation instances have equal initial and final projection sets,
block-monomial instances have commuting final projections with equal-rank
atoms, and the ring instances are irreducible because their loop group spans
the full block algebra.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import numpy as np

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def bench_module(name: str):
    """perfbench/<name>.py under its own name (which checks.py imports
    oracle by), loaded without writing bytecode next to it."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
        try:
            spec.loader.exec_module(module)
        finally:
            sys.dont_write_bytecode = dont_write
    return sys.modules[name]


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def block_diag(*mats) -> np.ndarray:
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for m in mats:
        k = m.shape[0]
        out[pos:pos + k, pos:pos + k] = m
        pos += k
    return out


def truncated_shift(length: int) -> np.ndarray:
    out = np.zeros((length, length), dtype=complex)
    for i in range(length - 1):
        out[i + 1, i] = 1.0
    return out


def permutation_matrix(perm) -> np.ndarray:
    n = len(perm)
    out = np.zeros((n, n), dtype=complex)
    for src, dst in enumerate(perm):
        out[dst, src] = 1.0
    return out


def diagonal_indicator(n: int, subset) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    for i in subset:
        out[i, i] = 1.0
    return out


def random_partial_isometry(rng: np.random.Generator, n: int) -> np.ndarray:
    """U1 D U2 for random unitaries and a random coordinate projection."""
    d = diagonal_indicator(n, [i for i in range(n) if rng.integers(2)])
    return random_unitary(rng, n) @ d @ random_unitary(rng, n)


def signed_permutation(rng: np.random.Generator, m: int) -> np.ndarray:
    perm = rng.permutation(m)
    signs = rng.choice([1.0, -1.0], size=m)
    out = np.zeros((m, m), dtype=complex)
    for src, dst in enumerate(perm):
        out[dst, src] = signs[src]
    return out


def weyl_heisenberg_pair(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Clock and shift on C^m; together they span the full m x m algebra."""
    shift = np.roll(np.eye(m, dtype=complex), 1, axis=0)
    omega = np.exp(2j * np.pi / m)
    clock = np.diag(omega ** np.arange(m))
    return clock, shift


def pq_equal_instance(seed: int):
    """Generators with P(S) = Q(S) by construction.

    One cyclic permutation sigma with its inverse, a partial permutation
    V = P_sigma E_D, and an extra diagonal projection: every element rewrites
    as P_tau E_D' with tau a power of sigma, and since all powers of sigma
    are available, each diagonal indicator that occurs is itself an element,
    making the initial and final projection sets coincide.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    perm = rng.permutation(n)
    p = permutation_matrix(perm)
    p_inv = p.conj().T
    d1 = diagonal_indicator(n, [i for i in range(n) if rng.integers(2)])
    d2 = diagonal_indicator(n, [i for i in range(n) if rng.integers(2)])
    named = [("VD", p @ d1), ("W", p_inv), ("D2", d2)]
    return n, named


def uniform_multiplicity_instance(seed: int):
    """Commuting Q family with equal-rank atoms by construction.

    The space is k blocks of size m.  Generators are block-monomial: a loop
    at every block (so each block is an atom of the Q algebra), plus movers
    along a random partial bijection of blocks, all with signed-permutation
    unitary parts so the closure stays inside a finite group.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    k = int(rng.integers(2, 4))
    n = m * k

    def place(u, i, j):
        out = np.zeros((n, n), dtype=complex)
        out[i * m:(i + 1) * m, j * m:(j + 1) * m] = u
        return out

    named = []
    for j in range(k):
        named.append((f"L{j}", place(signed_permutation(rng, m), j, j)))
    sources = list(rng.permutation(k))
    targets = list(rng.permutation(k))
    edges = int(rng.integers(1, k + 1))
    mover = np.zeros((n, n), dtype=complex)
    for e in range(edges):
        mover += place(signed_permutation(rng, m), targets[e], sources[e])
    named.append(("M", mover))
    return n, m, k, named


def irreducible_uniform_instance(seed: int):
    """Irreducible with commuting Q family: a ring of k blocks of size m.

    The ring edges carry identity unitaries except the doubled edge 0 -> 1
    which carries the clock and shift pair, so loop products based at any
    block span the full m x m algebra and the word algebra is everything.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    k = int(rng.integers(2, 5))
    n = m * k

    def place(u, i, j):
        out = np.zeros((n, n), dtype=complex)
        out[i * m:(i + 1) * m, j * m:(j + 1) * m] = u
        return out

    clock, shift = weyl_heisenberg_pair(m)
    named = [("C01", place(clock, 1 % k, 0)), ("S01", place(shift, 1 % k, 0))]
    for j in range(1, k):
        named.append((f"R{j}", place(np.eye(m, dtype=complex), (j + 1) % k, j)))
    return n, m, k, named


def hw_mixed_operator(seed: int):
    """(random unitary block + truncated shifts) conjugated by a random unitary."""
    rng = np.random.default_rng(seed)
    u_dim = int(rng.integers(0, 4))
    lengths = sorted(int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4))))
    blocks = []
    if u_dim:
        blocks.append(random_unitary(rng, u_dim))
    blocks.extend(truncated_shift(ell) for ell in lengths)
    v0 = block_diag(*blocks)
    w = random_unitary(rng, v0.shape[0])
    return w @ v0 @ w.conj().T, u_dim, tuple(lengths)
