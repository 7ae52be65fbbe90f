"""A fixed reference computation, timed between the repetitions of a run.

The benchmark's machine shares its cores with others, and its speed drifts by
up to a factor of two over minutes. Dividing each repetition's wall time by
the time of this fixed computation just before and after it cancels most of
that drift. The computation is a frozen NumPy replica of one iteration of
the clustered solver at 40×40 (224 bands, 6 endmembers): multiplicative
signature step, residual gradient, neighbour pull by scatter-add, sparsity
gradient, sort-based simplex projection and objective. It never calls the
program, so no change to the program can move it.
"""

import time

import numpy as np

_SIDE, _BANDS, _C = 40, 224, 6
_ROUNDS = 150


def _grid_edges(side: int):
    """Directed 8-neighbour edges of a side × side grid."""
    idx = np.arange(side * side).reshape(side, side)
    src, dst = [], []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr or dc:
                rows = slice(max(dr, 0), side + min(dr, 0))
                cols = slice(max(dc, 0), side + min(dc, 0))
                rows_n = slice(max(-dr, 0), side + min(-dr, 0))
                cols_n = slice(max(-dc, 0), side + min(-dc, 0))
                src.append(idx[rows, cols].ravel())
                dst.append(idx[rows_n, cols_n].ravel())
    return np.concatenate(src), np.concatenate(dst)


_rng = np.random.default_rng(0)
_Y = _rng.random((_BANDS, _SIDE * _SIDE))
_A = _rng.random((_BANDS, _C))
_S = _rng.dirichlet(np.ones(_C), _SIDE * _SIDE).T
_SRC, _DST = _grid_edges(_SIDE)
_W = _rng.random(_SRC.size)
_RANKS = np.arange(1, _C + 1)[:, None]
_COLS = np.arange(_SIDE * _SIDE)
# Temporaries above glibc's mmap threshold are preallocated: otherwise their
# page faults make the timing depend on the allocator's history in the
# process, not only on the machine's speed.
_BAND_BUF = np.empty_like(_Y)
_EDGE_BUF = np.empty((_C, _SRC.size)), np.empty((_C, _SRC.size))


def _edge_differences(S):
    a, b = _EDGE_BUF
    np.take(S, _DST, axis=1, out=a)
    np.take(S, _SRC, axis=1, out=b)
    return np.subtract(a, b, out=a)


def _iteration() -> float:
    A = _A * (_Y @ _S.T) / (_A @ (_S @ _S.T) + 1e-12)
    R = np.subtract(_Y, np.matmul(A, _S, out=_BAND_BUF), out=_BAND_BUF)
    step = 0.02 * (A.T @ R)
    pull = np.zeros((_S.shape[1], _C))
    np.add.at(pull, _SRC, np.multiply(_edge_differences(_S), _W, out=_EDGE_BUF[0]).T)
    V = _S + step + 0.002 * pull.T - 0.002 * _S / (np.abs(_S) + 1e-12)
    u = np.sort(V, axis=0)[::-1]
    css = np.cumsum(u, axis=0)
    rho = (u + (1.0 - css) / _RANKS > 0).sum(axis=0) - 1
    S = np.maximum(V + (1.0 - css[rho, _COLS]) / (rho + 1.0), 0.0)
    R = np.subtract(_Y, np.matmul(A, S, out=_BAND_BUF), out=_BAND_BUF)
    d = _edge_differences(S)
    return float(np.vdot(R, R)) + float(_W @ np.einsum("ij,ij->j", d, d))


def warm_up() -> None:
    """First-call costs (page faults on the buffers, NumPy dispatch caches)."""
    for _ in range(3):
        _iteration()


def reference_seconds() -> float:
    """Wall time of one pass of the fixed computation (about 1 s)."""
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        _iteration()
    return time.perf_counter() - t0
