"""Chains of non-identity factors, enumerated from ``decompose2`` alone: the
tests' oracle for element lengths and for the unfolded star."""

import itertools


def decompose_n(C, x, n):
    """The n-fold non-identity decompositions of x, one entry per chain of
    intermediate products x in x1.z1, z1 in x2.z2, ..., so a multi-valued
    catoid can list a tuple more than once; for functional catoids every
    tuple appears once.  Sorted stably by the factors' sort keys."""
    if n == 0:
        return [()] if C.is_identity(x) else []
    if n == 1:
        return [] if C.is_identity(x) else [(x,)]
    found = [(y,) + rest for y, z in C.decompose2(x) if not C.is_identity(y)
             for rest in decompose_n(C, z, n - 1)]
    return sorted(found, key=lambda t: [C.sort_key(p) for p in t])


def chains(C, x):
    """``decompose_n(C, x, n)`` for n = 1, 2, ... up to the first empty list;
    empty exactly for identities."""
    out = []
    for n in itertools.count(1):
        parts = decompose_n(C, x, n)
        if not parts:
            return out
        out += parts


def chain_sum(f, x):
    """The unfolded star of f at x, summed chain by chain in the order of
    ``chains``: f(s(x1))* . f(x1) . f(t(x1))* . ... . f(xn) . f(t(xn))*."""
    C, K = f.catoid, f.algebra
    if C.is_identity(x):
        return K.star(f(x))
    acc = K.zero
    for factors in chains(C, x):
        term = K.star(f(C.source(factors[0])))
        for p in factors:
            term = K.mul(K.mul(term, f(p)), K.star(f(C.target(p))))
        acc = K.add(acc, term)
    return acc
