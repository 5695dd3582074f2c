"""Small exact linear-algebra helpers on tuples of ints."""

from math import gcd


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def vec_neg(v):
    return tuple(-a for a in v)


def is_zero(v):
    return all(a == 0 for a in v)


def int_vector(v):
    """The entries of v as a tuple of ints.

    Integral values of any numeric type (the float 2.0, the rational 4/2)
    are accepted; any other entry raises ValueError instead of being
    truncated.
    """
    v = tuple(v)
    ints = tuple(map(int, v))
    if ints != v:
        raise ValueError(f"non-integral entry in {v}")
    return ints


def primitive(v):
    """Divide a nonzero integer vector by the gcd of its entries.

    The direction is preserved (the gcd is always positive).
    """
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(a // g for a in v)
