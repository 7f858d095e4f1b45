"""Checkpointed partial sums of alternating (and unit-phase) prime series.

Two families are covered: the index-weighted series sum phase^n * n / p_n
and the counting-parity series sum phase^pi(m) / (m log m), together with
pairwise averaging of consecutive partial sums and a numerical check that
the two series track each other up to a constant.

Accumulation is compensated: chunk prefixes are carried in extended
precision and every checkpoint stores the float64 value plus the residual
(compensation) beyond it, so downstream consumers can reconstruct the sum
to better than float64. Term producers yield pieces ``(ends, k, mags)``,
one per run of ``PrimeTable.walk`` (which alone cuts the runs), of unsigned
terms and the exponent k of the phase on each. One scan (_scan) alone
decides each term's chunk and phase power, and folds the prefixes through a
reused buffer of _SUB + 1 longdouble values, so no value depends on the cuts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .primes import PrimeTable

# Phase powers are renormalized to |z| = 1 after this many multiplications;
# it is also the chunk length for complex-phase scans.
RENORM_STEPS = 1 << 16

# Real-phase scans carry exact signs, so larger chunks are safe.
_REAL_CHUNK = 1 << 20

# _scan takes prefixes this many terms at a time, and the parity series'
# per-integer head comes in pieces of this many integers, so that a piece's
# arrays stay in cache; it sets no value (see _scan).
_SUB = 1 << 14

# The parity series is summed term by term below this integer and one
# prime gap at a time from it on (see parity_partial).
_BLOCK_CUTOFF = 1 << 16

_LD = np.longdouble

# phase^k for k even and odd at phase -1
_SIGNS = np.array([1.0, -1.0])

# verify_equivalence's domain, which the equiv command checks before log(x)
_X_VALUES = "x_values must be integers >= 3, so that M = floor(x log x) >= 2"


def _as_phase(phase: complex) -> complex:
    z = complex(phase)
    if not cmath.isfinite(z) or abs(abs(z) - 1.0) > 1e-9:
        raise ValueError(f"phase must be a finite point of the unit circle, got {z!r}")
    return z


def _is_sign(phase: complex) -> bool:
    """Whether the phase is exactly +1 or -1, so its powers are exact float64 signs."""
    return phase.imag == 0.0 and phase.real in (1.0, -1.0)


@dataclass
class PartialSumTrace:
    """Partial sums of a series recorded at checkpoint indices.

    ``values[k]`` is the float64 partial sum at ``indices[k]`` and
    ``compensations[k]`` the residual beyond float64; value + compensation
    reconstructs the extended-precision sum.
    """

    indices: np.ndarray
    values: np.ndarray
    compensations: np.ndarray
    phase: complex
    abs_term_total: float = 0.0

    def __len__(self) -> int:
        return int(self.indices.size)

    def value_at(self, index: int) -> complex:
        k = np.searchsorted(self.indices, index)
        if k >= self.indices.size or self.indices[k] != index:
            raise ValueError(f"index {index} is not a checkpoint of this trace")
        return complex(self.values[k])

    @property
    def final_value(self) -> complex:
        return complex(self.values[-1])

    def is_real(self) -> bool:
        return self.phase.imag == 0.0

    def _rows(self):
        real = self.is_real()
        for i, v, c in zip(self.indices, self.values, self.compensations):
            comp = c.real if real else abs(c)
            yield int(i), v.real, v.imag, comp


def checkpoint_indices(
    start: int,
    stop: int,
    ratio: float = 1.25,
    dense_windows: tuple[tuple[int, int], ...] = (),
    explicit: np.ndarray | None = None,
) -> np.ndarray:
    """Geometric checkpoints from start to stop plus dense unit-step windows (lo, hi), lo <= hi."""
    if stop < start:
        raise ValueError(f"stop={stop} precedes start={start}")
    if explicit is not None:
        grid = np.asarray(explicit, dtype=np.int64)
        bad = grid[(grid < start) | (grid > stop)]
        if bad.size:
            raise ValueError(f"explicit checkpoint {bad[0]} outside [{start}, {stop}]")
    else:
        marks = []
        c = start
        while c < stop:
            marks.append(c)
            c = max(c + 1, int(math.ceil(c * ratio)))
        grid = np.array(marks, dtype=np.int64)
    parts = [grid, np.array([stop], dtype=np.int64)]
    for lo, hi in dense_windows:
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError(f"dense window ({lo}, {hi}) has lo > hi")
        parts.append(np.arange(max(lo, start), min(hi, stop) + 1, dtype=np.int64))
    return np.unique(np.concatenate(parts))


def _scan(checkpoints: np.ndarray, pieces, phase: complex) -> PartialSumTrace:
    """Compensated partial sums at ``checkpoints`` of sum phase^k * mag.

    ``pieces`` yields ``(ends, k, mags)``: with the term phase^k[i] * mags[i]
    the sum reaches index ``ends[i]``. ``mags`` are unsigned float64, ``k``
    is at least 1 and never decreases, ``ends`` increases across pieces, and
    every checkpoint up to ``ends[-1]`` not read by an earlier piece must be
    one of its entries.

    Chunk q holds the terms with k in [1 + q*c, (q+1)*c], where c is
    _REAL_CHUNK for phases +-1 (exact float64 signs) and RENORM_STEPS for
    the others, whose powers come from one renormalized ``_phase_powers``
    run per chunk, in order from k = 1. The scan cuts each piece at chunk
    edges and every _SUB terms, and takes the prefixes of a sub-piece in
    one reused longdouble buffer (clongdouble for complex phases):
    ``buf[0]`` holds the open chunk's prefix so far, the signed terms go to
    ``buf[1:]``, and an in-place ``cumsum`` makes the same additions in the
    same order as one ``cumsum`` over the whole chunk. A chunk's prefix is
    added to the running total, one clongdouble, when the next chunk
    opens, and a checkpoint reads total + prefix, so no value or
    compensation depends on _SUB or on how a producer cuts its pieces.
    ``abs_term_total`` only bounds the rounding error, so it is a float64
    sum of piece sums of ``mags``.
    """
    real = _is_sign(phase)
    c = _REAL_CHUNK if real else RENORM_STEPS
    values = np.zeros(checkpoints.size, dtype=np.complex128)
    comps = np.zeros(checkpoints.size, dtype=np.complex128)
    total = np.clongdouble(0.0)
    abs_total = 0.0
    done = 0  # checkpoints read so far
    buf = np.zeros(_SUB + 1, dtype=_LD if real else np.clongdouble)
    q = 0  # the open chunk, whose prefix is in buf[0]
    if not real:
        pw, carry = _phase_powers(phase, 1.0 + 0.0j, c)  # phase^(q*c + 1 ... (q+1)*c)
    for ends, k, mags in pieces:
        abs_total += float(mags.sum())
        q0, q1 = (int(k[0]) - 1) // c, (int(k[-1]) - 1) // c
        edges = np.searchsorted(k, 1 + c * np.arange(q0 + 1, q1 + 1))
        cuts = sorted({*range(0, k.size, _SUB), *edges.tolist(), k.size})
        for s, e in zip(cuts[:-1], cuts[1:]):
            ks = k[s:e]
            qs = (int(ks[0]) - 1) // c
            if qs > q:  # a new chunk opens
                total += buf[0]
                buf[0] = 0.0
                while not real and q < qs:
                    pw, carry = _phase_powers(phase, carry, c)
                    q += 1
                q = qs
            n = e - s
            pre = buf[: n + 1]
            if not real:
                pre[1:] = pw[(ks - 1) % c] * mags[s:e]
            elif phase.real == -1.0:
                pre[1:] = _SIGNS[ks & 1] * mags[s:e]
            else:
                pre[1:] = mags[s:e]
            np.cumsum(pre, out=pre)
            piece_ends = ends[s:e]
            hi = int(np.searchsorted(checkpoints, piece_ends[-1], side="right"))
            if hi > done:
                off = np.searchsorted(piece_ends, checkpoints[done:hi])
                if not np.array_equal(piece_ends[off], checkpoints[done:hi]):
                    raise AssertionError("a checkpoint falls inside a term")
                at = total + pre[off + 1]
                values[done:hi] = at
                comps[done:hi] = at - values[done:hi].astype(np.clongdouble)
                done = hi
            buf[0] = pre[n]
    if done != checkpoints.size:
        raise AssertionError("scan ended before all checkpoints were reached")
    return PartialSumTrace(
        indices=checkpoints,
        values=values,
        compensations=comps,
        phase=phase,
        abs_term_total=abs_total,
    )


def _phase_powers(phase: complex, carry: complex, count: int) -> tuple[np.ndarray, complex]:
    """carry * phase^(1..count) by repeated multiplication; renormalized carry out."""
    pw = carry * np.cumprod(np.full(count, phase, dtype=np.complex128))
    nxt = complex(pw[-1])
    nxt /= abs(nxt)
    return pw, nxt


def _erdos_terms(table: PrimeTable, first: int, last: int):
    """Yield pieces (n, t), one per run of ``walk``, of terms t[i] = n[i] / p_(n[i]) for first <= n <= last."""
    for s, e, p in table.walk(first - 1, last):
        n = np.arange(s + 1, e + 1)
        yield n, n / p[: n.size]


def erdos_partial(
    table: PrimeTable,
    n_max: int,
    phase: complex = -1.0,
    *,
    checkpoints: np.ndarray | None = None,
    dense_windows: tuple[tuple[int, int], ...] = (),
    ratio: float = 1.25,
) -> PartialSumTrace:
    """Partial sums of sum_{n<=N} phase^n * n / p_n at checkpointed N.

    Parameters
    ----------
    table : PrimeTable
        Must hold p_(n_max); a shorter table raises BoundsError.
    n_max : int
        Largest summation index.
    phase : complex
        Unit phase z; the classic alternating series is z = -1.
    checkpoints, dense_windows, ratio
        Checkpoint layout; explicit ``checkpoints`` override the geometric
        grid, ``dense_windows`` add unit-step runs either way.
    """
    phase = _as_phase(phase)
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")

    cps = checkpoint_indices(1, n_max, ratio, dense_windows, checkpoints)
    pieces = ((n, n, t) for n, t in _erdos_terms(table, 1, n_max))
    return _scan(cps, pieces, phase)


def _block_sums(edges: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin sums of 1/(m log m) over [edges[i], edges[i+1]) (see parity_partial)."""
    x = edges.astype(np.float64)
    log_x = np.log(x)  # log b of one block is log a of the next
    f = 1.0 / (x * log_x)
    df = -(log_x + 1.0) * f * f
    sums = np.log1p(np.log1p(np.diff(x) / x[:-1]) / log_x[:-1])
    sums += (f[:-1] - f[1:]) / 2.0
    sums += (df[1:] - df[:-1]) / 12.0
    return sums


def _parity_blocks(table: PrimeTable, m_max: int, checkpoints: np.ndarray):
    """Cut [2, m_max] into blocks [a, b) on which k = pi(m) is constant.

    Yields pieces ``(ends, k, sums)`` for ``_scan``: the last index b - 1 of
    each block, its k, and the sum of 1/(m log m) over it. Below
    _BLOCK_CUTOFF every integer is a block of its own, and a piece spans
    _SUB integers. From it on a block runs from one prime to the next, cut
    at _BLOCK_CUTOFF, at m_max + 1 and after every checkpoint, and a piece
    spans the values of k of one run of ``walk``.
    """
    j1 = table.pi(m_max)  # k of the last block
    cut = min(_BLOCK_CUTOFF, m_max + 1)
    head_k = np.cumsum(table.is_prime_range(2, cut))
    for s in range(2, cut, _SUB):
        e = min(s + _SUB, cut)
        m = np.arange(s, e, dtype=np.float64)
        yield np.arange(s, e), head_k[s - 2 : e - 2], 1.0 / (m * np.log(m))
    if m_max < _BLOCK_CUTOFF:
        return
    j0 = table.pi(_BLOCK_CUTOFF)  # k of the first block
    splits = checkpoints[checkpoints >= _BLOCK_CUTOFF] + 1
    # every prime <= m_max; a run holds the next run's first prime too
    for s, e, p in table.walk(j0 - 1, j1):
        # block k starts at p_k and ends where block k + 1 starts
        edges = np.empty(e - s + 1, dtype=np.int64)
        edges[: p.size] = p
        if e == j1:
            edges[-1] = m_max + 1
        if s == j0 - 1:
            edges[0] = _BLOCK_CUTOFF
        k = np.arange(s + 1, e + 1)
        inside = np.searchsorted(splits, [edges[0] + 1, edges[-1]])
        cuts = splits[inside[0] : inside[1]]
        pos = np.searchsorted(edges, cuts)
        keep = edges[pos] != cuts
        if keep.any():
            cuts, pos = cuts[keep], pos[keep]
            edges = np.insert(edges, pos, cuts)
            k = np.insert(k, pos, k[pos - 1])  # both halves of a split block keep its k
        yield edges[1:] - 1, k, _block_sums(edges)


def parity_partial(
    table: PrimeTable,
    m_max: int,
    phase: complex = -1.0,
    *,
    checkpoints: np.ndarray | None = None,
    dense_windows: tuple[tuple[int, int], ...] = (),
    ratio: float = 1.25,
) -> PartialSumTrace:
    """Partial sums of sum_{2<=m<=M} phase^pi(m) / (m log m), natural log.

    The sum runs over prime gaps, not over integers. Below C = 2^16 the
    terms f(m) = 1/(m log m) are added one by one. From C on, pi(m) = k is
    constant on each block [a, b) between consecutive primes, cut at C, at
    M + 1 and after every checkpoint, so each block adds phase^k times

        sum_{a<=m<b} f(m) = log1p(log1p(g/a) / log a)
                            + (f(a) - f(b))/2 + (f'(b) - f'(a))/12 + R,

    where g = b - a and f'(m) = -(log m + 1) f(m)^2. The first term is
    log log b - log log a, written so that it stays well conditioned when
    g/a is small. This is Euler-Maclaurin of order 3, whose remainder is
    |R| <= (2 zeta(3)/(2 pi)^3) int_a^b |f'''| < 0.0097 (f''(a) - f''(b)).
    The last step uses f''' < 0: f is completely monotone on (1, inf),
    because 1/x is, 1/log x is 1/t composed with the Bernstein function
    log x, and products of completely monotone functions are completely
    monotone. As |phase^k| = 1, the remainders of all blocks together
    stay below 0.0097 f''(C) = 7.1e-18, where
    f''(x) = (2 log^2 x + 3 log x + 2) / (x^3 log^3 x). That is under half
    an ulp of any partial sum of size 1/8 or more. Each block sum carries
    a rounding error of a few ulps, as each term did.
    """
    phase = _as_phase(phase)
    m_max = int(m_max)
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {m_max}")

    cps = checkpoint_indices(2, m_max, ratio, dense_windows, checkpoints)
    return _scan(cps, _parity_blocks(table, m_max, cps), phase)


def average_consecutive(trace: PartialSumTrace) -> PartialSumTrace:
    """Average consecutive partial sums: checkpoint k becomes (S_k + S_{k+1})/2.

    Operates on every unit-step run of the trace; raises if the trace has
    no adjacent checkpoint pair (too sparse to average).
    """
    if len(trace) < 2:
        raise ValueError("trace too short to average")
    adj = np.diff(trace.indices) == 1
    if not adj.any():
        raise ValueError("trace has no unit-step checkpoints; request a dense window")
    idx = trace.indices[:-1][adj]
    vals = (trace.values[:-1][adj] + trace.values[1:][adj]) / 2.0
    comp = (trace.compensations[:-1][adj] + trace.compensations[1:][adj]) / 2.0
    return PartialSumTrace(
        indices=idx,
        values=vals,
        compensations=comp,
        phase=trace.phase,
        abs_term_total=trace.abs_term_total,
    )


@dataclass
class EquivalenceReport:
    """Side-by-side values of the two series at matched scales.

    ``lhs[i]`` is sum_{n<=x_i} z^n n/p_n, ``rhs[i]`` is
    (z/(z-1)) * sum_{2<=m<=x_i log x_i} z^pi(m)/(m log m); their
    differences should stabilize toward a constant as x grows.
    """

    x_values: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    differences: np.ndarray = field(init=False)
    phase: complex = -1.0

    def __post_init__(self):
        self.differences = self.lhs - self.rhs

    def max_pairwise_spread(self, top_half: bool = True) -> float:
        d = self.differences[self.x_values.size // 2 :] if top_half else self.differences
        return float(max(abs(a - b) for a in d for b in d))

    def consecutive_spreads(self) -> np.ndarray:
        return np.abs(np.diff(self.differences))


def verify_equivalence(
    table: PrimeTable, x_values: list[int], phase: complex = -1.0
) -> EquivalenceReport:
    """Evaluate both series at matched scales x and M = floor(x log x)."""
    phase = _as_phase(phase)
    if phase == 1:
        raise ValueError("phase 1 has no finite comparison constant; both sides diverge")
    xs = np.array(sorted(set(int(x) for x in x_values)), dtype=np.int64)
    if xs.size == 0 or xs[0] < 3:
        raise ValueError(_X_VALUES)
    ms = np.array([int(x * math.log(x)) for x in xs], dtype=np.int64)
    lhs_trace = erdos_partial(table, int(xs[-1]), phase, checkpoints=xs)
    rhs_trace = parity_partial(table, int(ms[-1]), phase, checkpoints=np.unique(ms))
    factor = phase / (phase - 1.0)
    lhs = np.array([lhs_trace.value_at(int(x)) for x in xs])
    rhs = factor * np.array([rhs_trace.value_at(int(m)) for m in ms])
    return EquivalenceReport(x_values=xs, lhs=lhs, rhs=rhs, phase=phase)


def oscillation_stats(table: PrimeTable, n_lo: int, n_hi: int) -> tuple[float, float]:
    """Total variation of raw vs pairwise-averaged partial sums over [n_lo, n_hi].

    The series is the alternating one, sum (-1)^n n / p_n with terms t_k.
    Returns (raw_tv, averaged_tv). Raw TV is sum |t_k|; averaged TV is
    sum |t_{k+1} + t_{k+2}| / 2, both accumulated term-wise without
    materializing dense traces. Consecutive terms have opposite signs, so
    |t_k + t_(k+1)| is |m_k - m_(k+1)| exactly, with m_k = |t_k|, and no
    sign is formed. Each sum takes one longdouble sum per ``walk`` run,
    split exactly into two float64 parts, and one ``math.fsum`` of all the
    parts rounds their total once.
    """
    n_lo, n_hi = int(n_lo), int(n_hi)
    if not 1 <= n_lo < n_hi:
        raise ValueError("need 1 <= n_lo < n_hi")

    raw, avg = [], []  # the parts of every run sum
    prev = np.empty(0)  # the last magnitude of the run before
    for _, m in _erdos_terms(table, n_lo + 1, n_hi):
        for parts, terms in ((raw, m), (avg, np.abs(np.diff(m, prepend=prev)) / 2.0)):
            run = terms.astype(_LD).sum()
            hi = float(run)
            parts += (hi, float(run - _LD(hi)))  # exact: x87 run - hi has <= 11 bits
        prev = m[-1:]
    return math.fsum(raw), math.fsum(avg)
