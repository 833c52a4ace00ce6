"""Orders on the main orbit: componentwise covers, two Bruhat constructions,
and enumeration of all reduced expressions.

Identities doing the heavy lifting:

* S(w) = 1 - A P(w) = h(P(w)), so descent data of w can be read off its
  main-orbit vector without touching matrices.
* P(s_i w) = T_i(P(w)): stripping a left descent is the involution T_i applied
  to the P-vector.  The reduced-word recursion therefore runs entirely on
  integer vectors, memoized per query.

The link-filter construction (`bruhat_from_primary`) keeps those componentwise
cover links whose difference is a positive rational multiple of a positive
root; `bruhat_from_subwords` is the independent subword-property construction
used as ground truth when the two are compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cartan import CartanData, Root, positive_roots
from .errors import InvariantError, NotInMainOrbitError
from .quadrics import h_vector
from .weyl import GroupTable, P_map, WeylElement, word_to_element

__all__ = [
    "Poset",
    "ReducedWordSet",
    "primary_poset",
    "bruhat_from_primary",
    "bruhat_from_subwords",
    "first_letters",
    "reduced_words",
    "emit_dot",
]


@dataclass(frozen=True)
class Poset:
    """Cover relation on main-orbit vectors; covers are (lower, higher) node indices."""

    nodes: tuple[tuple[int, ...], ...]
    covers: frozenset[tuple[int, int]]
    kind: str
    ranks: tuple[int, ...] | None = None

    def cover_vectors(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        return sorted((self.nodes[a], self.nodes[b]) for a, b in self.covers)

    def relation(self) -> frozenset[tuple[int, int]]:
        """Strict reachability over covers, as ordered index pairs."""
        n = len(self.nodes)
        up = [[] for _ in range(n)]
        for a, b in self.covers:
            up[a].append(b)
        pairs = set()
        for start in range(n):
            stack = list(up[start])
            seen = set()
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                pairs.add((start, v))
                stack.extend(up[v])
        return frozenset(pairs)

    def relation_vectors(self) -> frozenset[tuple[tuple[int, ...], tuple[int, ...]]]:
        return frozenset((self.nodes[a], self.nodes[b]) for a, b in self.relation())


def _componentwise_le(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _cover_pairs(nodes) -> set[tuple[int, int]]:
    n = len(nodes)
    ups = [
        [j for j in range(n) if i != j and _componentwise_le(nodes[i], nodes[j])]
        for i in range(n)
    ]
    covers = set()
    for i in range(n):
        for j in ups[i]:
            if not any(
                c != j and _componentwise_le(nodes[c], nodes[j]) for c in ups[i]
            ):
                covers.add((i, j))
    return covers


def primary_poset(table: GroupTable) -> Poset:
    """Hasse diagram of the componentwise order on the P-vector set."""
    nodes = table.nodes
    return Poset(
        nodes=nodes,
        covers=frozenset(_cover_pairs(nodes)),
        kind="primary",
        ranks=table.lengths(),
    )


def _is_positive_root_multiple(diff, roots: tuple[Root, ...]) -> bool:
    for root in roots:
        pivot = next(i for i, c in enumerate(root.coords) if c)
        if diff[pivot] == 0:
            continue
        ratio = Fraction(diff[pivot], root.coords[pivot])
        if ratio > 0 and all(
            Fraction(d) == ratio * c for d, c in zip(diff, root.coords)
        ):
            return True
    return False


def bruhat_from_primary(table: GroupTable, roots: tuple[Root, ...] | None = None) -> Poset:
    """Keep the componentwise cover links whose difference is a root multiple.

    The kept links are covers of the filtered relation as well: a kept link
    cannot become redundant because no third node sits componentwise between
    its endpoints.
    """
    if roots is None:
        roots = positive_roots(table.cd)
    base = primary_poset(table)
    kept = frozenset(
        (a, b)
        for a, b in base.covers
        if _is_positive_root_multiple(
            tuple(y - x for x, y in zip(base.nodes[a], base.nodes[b])), roots
        )
    )
    return Poset(nodes=base.nodes, covers=kept, kind="bruhat_primary_filtered", ranks=base.ranks)


def bruhat_from_subwords(table: GroupTable) -> Poset:
    """Bruhat order via the subword property of one fixed reduced word per element.

    The set of products of all subsequences of a reduced word of w is exactly
    the lower interval [identity, w]; covers are the transitive reduction.
    Each word is read right to left, and every letter s_i multiplies the
    products collected so far on the left, which on P-vectors is T_i.
    """
    nodes = table.nodes
    index = table.index
    lmul = table.left_multiplication
    identity_idx = index[(0,) * table.cd.n]
    n = len(nodes)
    down = [0] * n  # bitmask of strictly-below indices
    for w_idx, p in enumerate(nodes):
        reachable = {identity_idx}
        for letter in reversed(table.elements[p].word):
            reachable |= {lmul[letter - 1][u] for u in reachable}
        mask = 0
        for u in reachable:
            if u != w_idx:
                mask |= 1 << u
        down[w_idx] = mask
    up = [0] * n
    for w_idx in range(n):
        mask = down[w_idx]
        while mask:
            low = mask & -mask
            up[low.bit_length() - 1] |= 1 << w_idx
            mask ^= low
    covers = set()
    for u in range(n):
        mask = up[u]
        while mask:
            low = mask & -mask
            w_idx = low.bit_length() - 1
            if up[u] & down[w_idx] == 0:
                covers.add((u, w_idx))
            mask ^= low
    return Poset(
        nodes=nodes,
        covers=frozenset(covers),
        kind="bruhat_subword",
        ranks=table.lengths(),
    )


def first_letters(w: WeylElement, cd: CartanData) -> frozenset[int]:
    """Indices i (1-based) where S(w) is negative: the admissible first letters
    of reduced expressions of w.  Empty exactly for the identity."""
    p = P_map(w, cd)
    return frozenset(i + 1 for i, v in enumerate(h_vector(p, cd)) if v < 0)


@dataclass(frozen=True)
class ReducedWordSet:
    element: tuple[int, ...]
    length: int
    words: tuple[tuple[int, ...], ...]


def _descend(p, i, cd: CartanData):
    # T_i on the P-vector: strip the descent s_i from the element
    hi = h_vector(p, cd)[i - 1]
    return p[: i - 1] + (p[i - 1] + hi,) + p[i:]


def _walk_from_origin(word, cd: CartanData) -> list[int]:
    # P(s_i1 ... s_ik) = T_i1(... T_ik(0)): apply the letters right to left
    A = cd.A
    p = [0] * cd.n
    for i in reversed(word):
        row = A[i - 1]
        p[i - 1] += 1 - sum(a * x for a, x in zip(row, p))
    return p


def reduced_words(w: WeylElement, cd: CartanData) -> ReducedWordSet:
    """All reduced expressions of w, by first-letter recursion on P-vectors.

    Every word is checked by a T-walk from the origin, which must land on
    P(w); the first word is also multiplied out once and compared with w, so
    a wrong P(w) is caught too.  A failed check raises InvariantError.
    """
    start = P_map(w, cd)
    memo: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}

    def words_for(p):
        if p in memo:
            return memo[p]
        letters = [i + 1 for i, v in enumerate(h_vector(p, cd)) if v < 0]
        if not letters:
            if any(p):
                raise NotInMainOrbitError(f"{p} is not a main-orbit vector of {cd.spec}")
            result: tuple[tuple[int, ...], ...] = ((),)
        else:
            collected = []
            for i in letters:
                for tail in words_for(_descend(p, i, cd)):
                    collected.append((i,) + tail)
            result = tuple(collected)
        memo[p] = result
        return result

    words = sorted(words_for(start))
    lengths = {len(word) for word in words}
    if len(lengths) != 1:
        raise InvariantError(f"reduced words of {start} in {cd.spec} differ in length")
    target = list(start)
    for word in words:
        if _walk_from_origin(word, cd) != target:
            raise InvariantError(f"word {word} does not reproduce the element {start}")
    if word_to_element(words[0], cd).mat != w.mat:
        raise InvariantError(f"word {words[0]} does not reproduce the element {start}")
    return ReducedWordSet(element=start, length=lengths.pop(), words=tuple(words))


def emit_dot(p: Poset) -> str:
    """Deterministic DOT rendering, nodes rank-grouped by Coxeter length."""
    lines = [f'digraph "{p.kind}" {{', "  rankdir=BT;", "  node [shape=box];"]
    labels = ["(" + ",".join(map(str, v)) + ")" for v in p.nodes]
    for i, label in enumerate(labels):
        lines.append(f'  n{i} [label="{label}"];')
    if p.ranks is not None and p.nodes:
        for level in sorted(set(p.ranks)):
            members = "; ".join(f"n{i}" for i in range(len(p.nodes)) if p.ranks[i] == level)
            lines.append(f"  {{ rank=same; {members}; }}")
    for a, b in sorted(p.covers):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
