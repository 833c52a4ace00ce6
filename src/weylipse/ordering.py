"""Orders on the main orbit: componentwise covers, two Bruhat constructions,
and enumeration of all reduced expressions.

Identities doing the heavy lifting:

* S(w) = 1 - A P(w) = h(P(w)), so descent data of w can be read off its
  main-orbit vector without touching matrices.
* P(s_i w) = T_i(P(w)): stripping a left descent is the involution T_i applied
  to the P-vector.  The reduced-word recursion therefore runs entirely on
  integer vectors, memoized per query, and each word is checked by the
  T-walk `cartan._t_walk`, the one walk that applies a word: P(w) = T_w(0),
  and T_w(x) = P(w) + w x tells elements apart at a regular enough x.
  It carries h = S with each P-vector: a step changes h only over one sparse
  column of A, so h is computed whole once per query, not once per state.

Each order is held as a bitmask per node, its down set: the node and the
nodes below it.  The componentwise down set of x is the AND over coordinates
of the nodes no larger there, after `_mask_budget` refuses a group whose masks
would take more than MASK_BYTE_CAP bytes.  Node order extends the order, so
`_hasse` takes the highest node left below w as a cover and clears its down
set: one step per cover, not per related pair.  The subword order needs no
mask: the covers of w = s_i v, for its table parent v, are v and the s_i u > u
with u covered by v (lifting property), walked in node order.
`Poset.down_masks` rebuilds the down sets of either order from its covers in
one pass in node order, since every cover goes up in it; `Poset.relation`
lists their bits and `relation_counts` compares two orders by popcounts of them.

The link-filter construction (`bruhat_from_primary`) keeps the componentwise
cover links whose difference is a positive multiple of a positive root: since
every root is primitive, the difference divided by its gcd must be one.  The
test runs once per distinct difference.
`bruhat_from_subwords` is the independent subword-property construction used
as ground truth when the two are compared: it reads no componentwise mask.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import chain, compress, repeat
from math import gcd
from operator import sub

from .cartan import CartanData, _t_step, _t_walk
from .errors import MASK_BYTE_CAP, CapExceededError, InvariantError, NotInMainOrbitError
from .exact import mat_vec
from .quadrics import h_vector
from .weyl import GroupTable, P_map, WeylElement

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


# maps the characters of a binary numeral to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class Poset(namedtuple("Poset", "nodes covers kind ranks", defaults=(None,))):
    """Cover relation on main-orbit vectors; covers are (lower, higher) node indices."""

    __slots__ = ()

    def down_masks(self) -> list[int]:
        """Down set per node as a bitmask: the node and every node below it over the covers.

        Covers go up in node order: both orders lie inside the componentwise
        order, and the nodes are sorted.  One that goes down raises InvariantError.
        """
        below = [[] for _ in self.nodes]
        for a, b in self.covers:
            if a >= b:
                raise InvariantError(f"{self.kind} cover ({a}, {b}) goes down in node order")
            below[b].append(a)
        down = []
        for w, lower in enumerate(below):
            mask = 1 << w
            for a in lower:
                mask |= down[a]
            down.append(mask)
        return down

    def relation(self) -> frozenset[tuple[int, int]]:
        """Strict reachability over covers, as ordered index pairs."""
        # byte a of row w: is a at or below w
        rows = (bin(mask)[:1:-1].encode().translate(_BIT_BYTES) for mask in self.down_masks())
        pairs = (zip(compress(range(w), row), repeat(w)) for w, row in enumerate(rows))
        return frozenset(chain.from_iterable(pairs))


def relation_counts(found: Poset, truth: Poset) -> tuple[int, int, int, int]:
    """(|found|, |truth|, |truth - found|, |found - truth|) for the relations of two
    posets on the same nodes, by popcounts of their down sets: no pair set is built.
    The sizes drop the node's own bit from each down set; the differences cancel it."""
    f, t = found.down_masks(), truth.down_masks()
    return (
        sum(m.bit_count() for m in f) - len(f),
        sum(m.bit_count() for m in t) - len(t),
        sum((y & ~x).bit_count() for x, y in zip(f, t)),
        sum((x & ~y).bit_count() for x, y in zip(f, t)),
    )


def _mask_budget(size: int) -> int:
    """|W|^2/16, the estimated bytes of the down-set masks of ``size`` nodes.

    Raises CapExceededError past this module's MASK_BYTE_CAP (read at the
    call), so that no mask is built.
    """
    estimate = size * size // 16
    if estimate > MASK_BYTE_CAP:
        raise CapExceededError(
            f"down-set masks of {size} nodes need about {estimate} bytes, "
            f"exceeding cap MASK_BYTE_CAP = {MASK_BYTE_CAP}"
        )
    return estimate


def _hasse(down: list[int]) -> list[tuple[int, int]]:
    """Covers (u, w) of an order given by down[w], the bitmask of w's down set.

    Node order must extend the order: down[w] holds w and nodes before it
    only, and one that does not raises InvariantError.  Then the highest node
    left in down[w] below w is a cover of w, since a node between them would
    come later and still be left.  It is recorded and its down set cleared,
    and the highest node left after that is the next cover: one step per cover.
    """
    covers = []
    for w, below in enumerate(down):
        if below >> w != 1:
            fault = "holds a node not below it in node order" if below >> w else "misses the node"
            raise InvariantError(f"down set of node {w} {fault}")
        rest = below ^ 1 << w
        while rest:
            u = rest.bit_length() - 1
            covers.append((u, w))
            rest &= ~down[u]
    return covers


def _componentwise_down(nodes) -> list[int]:
    """Down set per node as a bitmask: the nodes componentwise at or below it.

    Per coordinate, ``at_most[v]`` is the bitmask of the nodes whose entry
    there is at most v; the down set of x is the AND of those masks at the
    entries of x.
    """
    _mask_budget(len(nodes))
    down = [-1] * len(nodes)
    for column in zip(*nodes):
        groups: dict[int, int] = {}
        for j, v in enumerate(column):
            groups[v] = groups.get(v, 0) | 1 << j
        at_most, mask = {}, 0
        for v in sorted(groups):
            mask |= groups[v]
            at_most[v] = mask
        for j, v in enumerate(column):
            down[j] &= at_most[v]
    return down


def primary_poset(table: GroupTable) -> Poset:
    """Hasse diagram of the componentwise order on the P-vector set."""
    return Poset(
        nodes=table.nodes,
        covers=frozenset(_hasse(_componentwise_down(table.nodes))),
        kind="primary",
        ranks=table.lengths(),
    )


def _is_positive_root_multiple(diff, roots: dict[tuple[int, ...], int]) -> bool:
    # every root is primitive, so diff is a positive multiple of a positive root
    # exactly when diff / gcd(diff) is a root with no negative coordinate
    g = gcd(*diff)
    return g > 0 and min(diff) >= 0 and tuple(d // g for d in diff) in roots


def bruhat_from_primary(table: GroupTable) -> Poset:
    """Keep the componentwise cover links whose difference is a root multiple.

    The kept links are covers of the filtered relation as well: a kept link
    cannot become redundant because no third node sits componentwise between
    its endpoints.
    """
    roots = table.cd.root_closure.roots
    # the covers have few distinct differences (E6: 457322 covers, 4285 differences)
    is_link = cache(lambda diff: _is_positive_root_multiple(diff, roots))
    nodes = table.nodes
    covers = _hasse(_componentwise_down(nodes))
    kept = frozenset((a, b) for a, b in covers if is_link(tuple(map(sub, nodes[b], nodes[a]))))
    return Poset(nodes=nodes, covers=kept, kind="bruhat_primary_filtered", ranks=table.lengths())


def bruhat_from_subwords(table: GroupTable) -> Poset:
    """Bruhat order via the subword property of one fixed reduced word per element.

    The elements w covers are its reduced word with one letter deleted, at
    length l(w) - 1 (strong exchange and the chain property).  The table word
    of w is (i,) + word(v) for its parent v = s_i w, and by the lifting
    property w covers v and each s_i u with u covered by v and s_i u > u, that
    is, with T_i raising coordinate i of P(u).  T_i lowers coordinate i of
    P(w), so v comes before w in node order and its covers are known; a
    parent that does not raises InvariantError.
    """
    nodes, index, cd = table.nodes, table.index, table.cd
    rows, _ = cd.sparse
    lower: list[list[int]] = []  # lower[w]: the nodes w covers
    for w, p in enumerate(nodes):
        word = table.elements[p].word
        if not word:
            lower.append([])
            continue
        i = word[0]
        v = index[_t_walk((i,), p, rows)]
        if v >= w:
            raise InvariantError(f"parent {nodes[v]} of {p} in {cd.spec} is not before it")
        covered = [v]
        for u in lower[v]:
            q = nodes[u]
            lifted = _t_walk((i,), q, rows)
            if lifted[i - 1] > q[i - 1]:
                covered.append(index[lifted])
        lower.append(covered)
    return Poset(
        nodes=nodes,
        covers=frozenset((u, w) for w, covered in enumerate(lower) for u in covered),
        kind="bruhat_subword",
        ranks=table.lengths(),
    )


def first_letters(w: WeylElement, cd: CartanData) -> frozenset[int]:
    """Indices i (1-based) where S(w) is negative: the admissible first letters
    of reduced expressions of w.  Empty exactly for the identity."""
    p = P_map(w, cd)
    return frozenset(i + 1 for i, v in enumerate(h_vector(p, cd)) if v < 0)


class ReducedWordSet(namedtuple("ReducedWordSet", "element length words")):
    """The reduced words, in lexicographic order, of the element with P-vector ``element``."""

    __slots__ = ()


def reduced_words(w: WeylElement, cd: CartanData) -> ReducedWordSet:
    """All reduced expressions of w in lexicographic order, by first-letter recursion on P-vectors.

    The recursion carries h = S of each state: stripping the descent i adds
    h_i to p_i and updates h over the sparse column i (`cartan._t_step`),
    so h is computed once, for P(w).  Every word is checked by a T-walk from
    the origin, which must land on P(w); the first word and w are also
    T-walked from one point x with x - delta strictly dominant and must agree
    there, as only equal elements do, so a wrong P(w) is caught too.  A
    failed check raises InvariantError.
    """
    start = P_map(w, cd)
    memo: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}

    def words_for(p, h):
        if p in memo:
            return memo[p]
        letters = [i for i, v in enumerate(h) if v < 0]
        if not letters:
            if any(p):
                raise NotInMainOrbitError(f"{p} is not a main-orbit vector of {cd.spec}")
            result: tuple[tuple[int, ...], ...] = ((),)
        else:
            collected = []
            for i in letters:
                head = (i + 1,)
                for tail in words_for(*_t_step(i, p, h, cd)):
                    collected.append(head + tail)
            result = tuple(collected)
        memo[p] = result
        return result

    # ascending first letters, each before its sorted tails of one length: no sort
    words = words_for(start, h_vector(start, cd))
    lengths = {len(word) for word in words}
    if len(lengths) != 1:
        raise InvariantError(f"reduced words of {start} in {cd.spec} differ in length")
    rows, _ = cd.sparse
    origin = (0,) * cd.n
    for word in words:
        if _t_walk(word, origin, rows) != start:
            raise InvariantError(f"word {word} does not reproduce the element {start}")
    # T_u(x) = delta + u (x - delta), so two elements agree at x exactly when
    # they agree on x - delta; for x = 2 adjA (1, ..., n), A (x - delta) has
    # entries 2 detA i - 1 >= 1, so x - delta is strictly dominant and only the
    # identity fixes it (adjA (1, ..., n) alone gives 0 at node 1 when detA = 1)
    regular = mat_vec(cd.adjA, range(2, 2 * cd.n + 1, 2))
    if _t_walk(words[0], regular, rows) != _t_walk(w.word, regular, rows):
        raise InvariantError(f"word {words[0]} does not reproduce the element {start}")
    return ReducedWordSet(element=start, length=lengths.pop(), words=words)


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
