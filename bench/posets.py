"""Finite posets, their down-sets and Hibi's purity criterion (stdlib only).

Posets are pairs ``(n, relations)`` on the elements ``0..n-1``; ``relations``
is a sorted tuple of strict pairs ``(a, b)`` meaning ``a < b``, transitively
closed.  Everything here is computed by the benchmark itself, so the program
under test receives only the generated inputs.
"""

from __future__ import annotations

import itertools


def transitive_closure(n, pairs):
    less = {(a, b) for a, b in pairs if a != b}
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(less), repeat=2):
            if b == c and (a, d) not in less:
                less.add((a, d))
                changed = True
    return tuple(sorted(less))


def _canonical(n, less):
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(sorted((perm[a], perm[b]) for a, b in less))
        if best is None or key < best:
            best = key
    return best


def unlabeled_posets(n):
    """One representative per isomorphism class of posets on n elements.

    Every poset has a natural labelling (a < b implies a precedes b), so the
    closures of all subsets of the pairs i < j cover every class.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        chosen = [p for k, p in enumerate(pairs) if mask >> k & 1]
        less = transitive_closure(n, chosen)
        canon = _canonical(n, less)
        if canon not in seen:
            seen.add(canon)
            out.append((n, canon))
    return sorted(out, key=lambda p: (len(p[1]), p[1]))


def relabel(poset, perm):
    n, less = poset
    return n, tuple(sorted((perm[a], perm[b]) for a, b in less))


def down_sets(poset):
    """All down-closed subsets, ordered by size then by sorted elements."""
    n, less = poset
    out = []
    for mask in range(1 << n):
        members = {e for e in range(n) if mask >> e & 1}
        if all(a in members for a, b in less if b in members):
            out.append(frozenset(members))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def maximal_chain_lengths(poset):
    """Numbers of elements of the maximal chains of a poset."""
    n, less = poset
    if n == 0:
        return {0}
    lt = set(less)
    covers = {(a, b) for a, b in lt
              if not any((a, c) in lt and (c, b) in lt for c in range(n))}
    minimal = [e for e in range(n) if not any((x, e) in lt for x in range(n))]
    lengths = set()
    stack = [(e, 1) for e in minimal]
    while stack:
        e, k = stack.pop()
        ups = [b for a, b in covers if a == e]
        if not ups:
            lengths.add(k)
        stack.extend((b, k + 1) for b in ups)
    return lengths


def is_pure(poset):
    """Hibi (1987): the Hibi ring of J(P) is Gorenstein iff P is pure."""
    return len(maximal_chain_lengths(poset)) == 1


def is_chain(poset):
    n, less = poset
    return len(less) == n * (n - 1) // 2


def lattice_covers(ideals):
    """Cover pairs (i, j) of the inclusion order on a list of down-sets."""
    out = []
    for i, a in enumerate(ideals):
        for j, b in enumerate(ideals):
            if a < b and len(b) == len(a) + 1:
                out.append((i, j))
    return out
