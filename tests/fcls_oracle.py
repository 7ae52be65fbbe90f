"""Fully constrained least squares by enumerating every support, kept as an oracle for ``gram_fcls``.

For each nonempty support P of the c signatures it solves the
equality-constrained least squares on P,

    [G_PP 1; 1^T 0] [z; nu] = [b_P; 1],

by least squares, so that a support of affinely dependent signatures gives
its minimum-norm solution instead of an error. Among the supports whose
solution is nonnegative it keeps the one of least cost. Some minimiser over
the simplex has a support of affinely independent signatures
(Caratheodory), and on that support it is the only minimiser over the
affine hull, so it is among them. 2^c - 1 supports, so for c <= 5 only.
"""

from itertools import combinations

import numpy as np


def fcls_oracle(AtY, AtA):
    """Abundances (c x N) and costs |y - A s|^2 - |y|^2 (N) of the minimiser of every column."""
    B = np.asarray(AtY, dtype=np.float64)
    G = np.asarray(AtA, dtype=np.float64)
    c, n = B.shape
    assert c <= 5, "2^c - 1 supports"
    best = np.full(n, np.inf)
    S = np.zeros((c, n))
    for size in range(1, c + 1):
        for support in combinations(range(c), size):
            P = list(support)
            kkt = np.ones((size + 1, size + 1))
            kkt[:size, :size] = G[np.ix_(P, P)]
            kkt[size, size] = 0.0
            rhs = np.vstack([B[P], np.ones((1, n))])
            z = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:size]
            cost = np.einsum("in,ij,jn->n", z, G[np.ix_(P, P)], z) - 2.0 * np.einsum("in,in->n", z, B[P])
            better = (z >= 0).all(axis=0) & (cost < best)
            best[better] = cost[better]
            S[:, better] = 0.0
            S[np.ix_(P, np.nonzero(better)[0])] = z[:, better]
    return S, best
