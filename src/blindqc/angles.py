"""Digitization of rotation angles into half-turn plus binary-fraction digits.

An angle is split as

    theta = half_turns * pi + sum_{m=1..M} digit_m * pi / 2^m + remainder

with ``half_turns = floor(theta / pi)`` and ``|remainder| <= pi / 2^M``.  Two
digit extractors are provided: ``floor`` produces digits in {0, 1}; the
``balanced`` extractor produces signed digits in {-1, 0, 1} by greedy nearest
rounding.  Both satisfy the same remainder bound.

Reconstruction from the digits, the remainder, and the impurity the
delegation ladder adds (the over-rotation that makes every digit's total
the same pi - pi / 2^M) are reference code in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PI = math.pi


def precision_bits(epsilon: float) -> int:
    """Smallest M with pi / 2^M <= epsilon; 1 <= M <= 1023."""
    if not 0 < epsilon < math.inf:  # also refuses nan
        raise ValueError(
            f"epsilon must be positive and finite, got {epsilon!r}")
    ratio = PI / epsilon
    if math.isinf(ratio):
        raise ValueError(f"epsilon {epsilon!r} is too small: pi/epsilon "
                         "overflows a float")
    # guard against ulp noise pushing an exact power-of-two boundary up
    m = max(1, math.ceil(math.log2(ratio) - 1e-12))
    if m > 1023:  # 2**M and pi / 2**M must stay finite floats
        raise ValueError(f"epsilon {epsilon!r} needs {m} digit blocks; "
                         "at most 1023 fit a float")
    return m


@dataclass(frozen=True)
class AngleDigits:
    """Digitized angle: ``theta ~ half_turns*pi + sum digits[m-1]*pi/2^m``."""

    theta: float
    n_digits: int
    half_turns: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.digits) != self.n_digits:
            raise ValueError("digit count does not match n_digits")
        if any(d not in (-1, 0, 1) for d in self.digits):
            raise ValueError("digits must lie in {-1, 0, 1}")

    @property
    def parity(self) -> int:
        """Half-turn parity; odd means an extra Z on reconstruction."""
        return self.half_turns % 2


def digitize(theta: float, n_digits: int, extractor: str = "floor") -> AngleDigits:
    if n_digits < 1:
        raise ValueError("need at least one digit")
    half_turns = math.floor(theta / PI)
    x = (theta - half_turns * PI) / PI
    # x is in [0, 1) mathematically; rounding near a half-turn boundary can
    # push it to exactly 1.0 or just below 0, which would break the digit sets
    x = min(max(x, 0.0), math.nextafter(1.0, 0.0))
    if extractor == "floor":
        digits = []
        prev = 0
        for m in range(1, n_digits + 1):
            cur = math.floor((2**m) * x)
            digits.append(cur - 2 * prev)
            prev = cur
    elif extractor == "balanced":
        digits = []
        r = x
        for m in range(1, n_digits + 1):
            d = min(1, max(-1, math.floor(r * 2**m + 0.5)))
            digits.append(d)
            r -= d / 2**m
    else:
        raise ValueError(f"unknown extractor {extractor!r}")
    return AngleDigits(float(theta), n_digits, half_turns, tuple(digits))
