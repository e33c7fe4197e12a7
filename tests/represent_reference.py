"""The O(sqrt(q)) scan over y: the oracle for `represent`.

Tries every y with n*y^2 <= q and keeps the first one that leaves a square,
so it returns the representation with the smallest y and shares nothing with
Cornacchia's algorithm.
"""

from math import isqrt

from brauersplit.quaternion import Representation


def scan_represent(n, q):
    for y in range(isqrt(q // n) + 1):
        t = q - n * y * y
        x = isqrt(t)
        if x * x == t:
            return Representation(x, y)
    return None
