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
* Gaussian blocks: ``gauss_vec(n)`` returns exactly what n ``gauss()`` calls
  would.  splitmix64 is counter-based (word i is the mix of
  ``seed + i * gamma mod 2**64``), so the 2n words and their uniforms are
  computed in one numpy uint64 pass.  The log, cos and sqrt stay libm calls
  (``math``) per element: numpy's vectorized ``np.log`` may differ from
  ``math.log`` in the last bit (on an AVX-512 host with numpy 2.4 it did on
  1,421 of 400,000 draws), and ``np.cos`` carries no such guarantee either.

Reference vectors (first four output words):

    seed 0x0     -> e220a8397b1dcdaf 6e789e6aa1b965f4 06c45d188009454f f88bb8a8724c81ec
    seed 0x1     -> 910a2dec89025cc1 beeb8da1658eec67 f893a2eefb32555e 71c18690ee42c90b

These match the published splitmix64 reference implementation.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SplitMix64"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 2**-53, the spacing of the uniform lattice.
_U53 = 1.0 / (1 << 53)


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
        """n independent standard normal draws, in stream order.

        Equal bit for bit to n ``gauss()`` calls, and leaves the state where
        they would.  The 2n words come from one uint64 array pass (the
        state ramp wraps mod 2**64 as the scalar path does); log, cos and
        sqrt stay libm calls per element.
        """
        if n < 0:
            raise ValueError(f"gauss_vec requires n >= 0, got {n}")
        start = self._state
        self._state = (start + 2 * n * _GAMMA) & _MASK64
        # Array-only arithmetic: numpy wraps uint64 arrays silently but warns
        # on scalar overflow.  Python int operands take the array's dtype.
        z = np.arange(1, 2 * n + 1, dtype=np.uint64) * _GAMMA + start
        z = (z ^ (z >> 30)) * _MIX1
        z = (z ^ (z >> 27)) * _MIX2
        u = ((z ^ (z >> 31)) >> 11).astype(np.float64) * _U53
        one_minus_u1 = (1.0 - u[0::2]).tolist()
        angle = ((2.0 * math.pi) * u[1::2]).tolist()
        log, cos, sqrt = math.log, math.cos, math.sqrt
        return np.array(
            [sqrt(-2.0 * log(a)) * cos(b) for a, b in zip(one_minus_u1, angle)],
            dtype=np.float64,
        )

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
