"""Small integer helpers: primality, factorization, divisors, valuations.

Inputs here are orders within the construction cap (a few hundred) and
primes the callers bound first (by the group order, or 2^31 for an elab
base), so plain trial division is the right tool.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def prime_factorization(n: int) -> dict[int, int]:
    """Map prime -> exponent for n >= 1 (empty for n = 1)."""
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def valuation(n: int, p: int) -> int:
    """Largest k with p^k dividing n."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def prime_power_base(n: int) -> int | None:
    """Return p if n is a prime power p^k (k >= 1), else None."""
    if n < 2:
        return None
    factors = prime_factorization(n)
    if len(factors) == 1:
        return next(iter(factors))
    return None
