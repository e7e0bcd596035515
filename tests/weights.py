"""The exactness predicate of the stock weights, shared by the value and
convolution tests."""

from convka.values import INF, NEG_INF


def exact(v):
    """An int, never a bool, or inf or -inf: no other float, and never nan."""
    return type(v) is int or type(v) is float and v in (INF, NEG_INF)
