"""Factorizations L = Z Z^T of base-graph Laplacians with 1^T Z = 0.

A factorization is its N x (N-1) array Z: columns orthogonal to the all-ones
vector, rank N - 1.  Two routes build one: the signed incidence matrix (trees
only, sparse and exact) and a spectral factorization (any connected graph).
Any two such factorizations differ by an orthogonal change of coordinates,
recovered by :func:`align`.
"""

import numpy as np

from ._checks import real
from .graphs import laplacian

KERNEL_REL_TOL = 1e-9


class FactorizationError(ValueError):
    """Input graph or matrix unsuitable for the requested factorization."""


def incidence_decomposition(tree):
    """Signed incidence matrix of a tree: one column per edge, +1 at the tail.

    Columns follow edge-list order; Z[i, e] is +1 if edge e leaves i, -1 if
    it enters i.
    """
    n = tree.n_nodes
    if tree.n_edges != n - 1:
        # construction guarantees connectivity, so extra edges mean a cycle
        raise FactorizationError(
            f"base graph has {tree.n_edges} edges on {n} nodes; a tree needs "
            f"{n - 1} (extra edges close a cycle)"
        )
    z = np.zeros((n, n - 1))
    for col, (i, j) in enumerate(tree.edges):
        z[i, col] = 1.0
        z[j, col] = -1.0
    return z


def spectral_decomposition(g):
    """Z = V diag(sqrt(lambda)) over the nonzero Laplacian eigenpairs, ascending."""
    lap = laplacian(g)
    evals, evecs = np.linalg.eigh(lap)
    thresh = KERNEL_REL_TOL * evals[-1]
    kernel = int(np.sum(evals < thresh))
    if kernel != 1:
        raise FactorizationError(
            f"expected exactly one kernel eigenvalue, found {kernel} "
            f"(numerical degeneracy or disconnected graph)"
        )
    return evecs[:, 1:] * np.sqrt(evals[1:])


def choose_decomposition(base):
    """The factorization a run uses: incidence for a tree base, else spectral."""
    return (incidence_decomposition if base.is_tree() else spectral_decomposition)(base)


def align(z1, z2, tol=1e-8):
    """Orthogonal O with z1 = z2 @ O, for two factorizations of one Laplacian."""
    real("tol", tol, FactorizationError)
    if z1.shape != z2.shape:
        raise FactorizationError("shape mismatch between decompositions")
    l1, l2 = z1 @ z1.T, z2 @ z2.T
    scale = max(np.abs(l1).max(), 1.0)
    if np.abs(l1 - l2).max() > tol * scale:
        raise FactorizationError("decompositions do not share a Laplacian")
    return z2.T @ z1 @ np.linalg.inv(z1.T @ z1)


def validate(z, base, tol=1e-10):
    """Check Z Z^T = laplacian(base), zero column sums, and full column rank."""
    lap = laplacian(base)
    if np.abs(z @ z.T - lap).max() > tol:
        raise FactorizationError("Z Z^T does not match the base Laplacian")
    if np.abs(z.sum(axis=0)).max() > tol:
        raise FactorizationError("column sums of Z are not zero")
    if np.linalg.matrix_rank(z) != z.shape[1]:
        raise FactorizationError("Z is rank deficient")


def external_decomposition(z):
    """A user-supplied matrix (e.g. a published factorization) as a float array."""
    return np.asarray(z, dtype=float)
