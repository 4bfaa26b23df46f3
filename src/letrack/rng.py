"""Pinned random stream for the synthetic data harness.

The harness must emit byte-identical files for a given seed, across runs and
across independent reimplementations, so it cannot rely on any library RNG
whose stream is an implementation detail.  This module pins the generator:

* State advance: splitmix64.  64-bit state, increment 0x9E3779B97F4A7C15 per
  draw, output finalized with the standard two xor-multiply rounds
  (0xBF58476D1CE4E5B9, 0x94D049BB133111EB) and a final ``z ^ (z >> 31)``.
* Uniform double in [0, 1): the top 53 bits of the output word,
  ``(word >> 11) * 2**-53``.
* Bounded integer in [0, n): ``word % n``.
* Gaussian: one Box-Muller evaluation per draw.  Both uniforms are consumed
  in order (u1 then u2) and only the cosine branch is returned:
  ``sqrt(-2 * ln(1 - u1)) * cos(2 * pi * u2)``.  The sine branch is
  discarded; no pair caching, so the mapping from state to value stream has
  no hidden mode.
* Gaussian blocks: row k of ``gauss_blocks(starts, n)`` is what n ``gauss()``
  calls from state ``starts[k]`` return (``gauss_vec(n)``: one row).  Word i
  is the mix of ``state + i * gamma mod 2**64``, so a caller may ``skip`` a
  block now and compute it later, all blocks in one uint64 pass.  log and cos
  stay libm (``math``) calls: ``np.log`` differed from ``math.log`` in the last
  bit on 1,421 of 400,000 draws (AVX-512, numpy 2.4), and ``np.cos`` has no
  guarantee either.  ``np.sqrt`` is exact: IEEE sqrt is correctly rounded.

Reference vectors (first four output words):

    seed 0x0     -> e220a8397b1dcdaf 6e789e6aa1b965f4 06c45d188009454f f88bb8a8724c81ec
    seed 0x1     -> 910a2dec89025cc1 beeb8da1658eec67 f893a2eefb32555e 71c18690ee42c90b

These match the published splitmix64 reference implementation.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SplitMix64", "gauss_blocks"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 2**-53, the spacing of the uniform lattice.
_U53 = 1.0 / (1 << 53)

# Words per chunk of gauss_blocks, which bounds its temporaries (~1 MiB each).
_CHUNK_WORDS = 1 << 17


def gauss_blocks(starts: list[int], n: int) -> np.ndarray:
    """Row k: the n ``gauss()`` draws of a generator in state ``starts[k]`` (its
    state ramp wraps mod 2**64 as the scalar path does); shape (len(starts), n)."""
    if n < 0:
        raise ValueError(f"gauss blocks require n >= 0, got {n}")
    starts = np.asarray(starts, dtype=np.uint64).reshape(-1, 1)
    out = np.empty((len(starts), n))
    # Array-only arithmetic: numpy wraps uint64 arrays silently but warns
    # on scalar overflow.  Python int operands take the array's dtype.
    ramp = np.arange(1, 2 * n + 1, dtype=np.uint64) * _GAMMA
    step = max(1, _CHUNK_WORDS // max(2 * n, 1))
    for i in range(0, len(starts), step):
        z = ramp + starts[i : i + step]
        z = (z ^ (z >> 30)) * _MIX1
        z = (z ^ (z >> 27)) * _MIX2
        u = ((z ^ (z >> 31)) >> 11).astype(np.float64) * _U53
        log = np.fromiter(map(math.log, (1.0 - u[:, 0::2]).ravel().tolist()), np.float64)
        cos = np.fromiter(map(math.cos, ((2.0 * math.pi) * u[:, 1::2]).ravel().tolist()), np.float64)
        out[i : i + step] = (np.sqrt(-2.0 * log) * cos).reshape(len(z), n)
    return out


class SplitMix64:
    """Deterministic 64-bit generator with pinned derived distributions."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        """Advance the state and return the next 64-bit output word."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) on the 2**-53 lattice."""
        return (self.next_u64() >> 11) * _U53

    def uniform_in(self, lo: float, hi: float) -> float:
        """Uniform double in [lo, hi)."""
        return lo + self.uniform() * (hi - lo)

    def randint(self, n: int) -> int:
        """Integer in [0, n) via modulo reduction.

        The modulo bias is negligible for the small ranges the harness uses
        and keeps the derivation trivially portable.
        """
        if n < 1:
            raise ValueError(f"randint requires n >= 1, got {n}")
        return self.next_u64() % n

    def gauss(self) -> float:
        """Standard normal draw; consumes exactly two uniforms."""
        u1 = self.uniform()
        u2 = self.uniform()
        # 1 - u1 is in (0, 1], so the log argument never hits zero.
        return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)

    def gauss_vec(self, n: int) -> np.ndarray:
        """n ``gauss()`` draws, bit for bit, as one ``gauss_blocks`` row."""
        block = gauss_blocks([self._state], n)[0]
        self.skip(2 * n)
        return block

    def skip(self, words: int) -> int:
        """Move the state past ``words`` output words; return the state before."""
        start = self._state
        self._state = (start + words * _GAMMA) & _MASK64
        return start

    def unit_vector(self, dim: int) -> np.ndarray:
        """Random direction: normalized Gaussian vector.

        Redraws on a zero-norm vector so the result is always unit length;
        with float64 Gaussians this effectively never triggers but keeps the
        contract total.
        """
        while True:
            v = self.gauss_vec(dim)
            norm = float(np.linalg.norm(v))
            if norm > 0.0:
                return v / norm
