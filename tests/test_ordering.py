import os
import subprocess
import sys

import pytest

import weylipse.ordering
from weylipse import (
    CapExceededError,
    InvariantError,
    NotInMainOrbitError,
    P_map,
    WeylElement,
    build_cartan,
    build_group_table,
    bruhat_from_primary,
    bruhat_from_subwords,
    emit_dot,
    first_letters,
    h_vector,
    parse_type,
    primary_poset,
    reduced_words,
    weyl_order,
    word_to_element,
)
from weylipse.ordering import (
    Poset,
    _componentwise_down,
    _hasse,
    _mask_budget,
    relation_counts,
)

import oracles
from oracles import (
    a3_bruhat_pairs,
    bruhat_covers_by_reflections,
    exhaustive_word_search,
    reachability_by_dfs,
)


def cd_of(text):
    return build_cartan(parse_type(text))


def table_of(text):
    return build_group_table(cd_of(text))


def componentwise_pairs(nodes):
    return {
        (a, b)
        for a in nodes
        for b in nodes
        if a != b and all(x <= y for x, y in zip(a, b))
    }


# --- first letters ---


def test_first_letters_examples():
    b2 = cd_of("B2")
    assert first_letters(word_to_element([], b2), b2) == frozenset()
    assert first_letters(word_to_element((1,), b2), b2) == {1}
    assert first_letters(word_to_element([1, 2, 1, 2], b2), b2) == {1, 2}


@pytest.mark.parametrize("text", ["A2", "B2", "G2", "A3"])
def test_first_letters_match_exhaustive_search(text):
    cd = cd_of(text)
    table = build_group_table(cd)
    longest = max(len(table.elements[p].word) for p in table.nodes)
    oracle = exhaustive_word_search(cd, longest)
    for p in table.nodes:
        w = table.elements[p]
        min_len, letters, _ = oracle[p]
        assert min_len == len(w.word)
        assert set(first_letters(w, cd)) == letters


# --- reduced words ---


def test_reduced_words_examples():
    a2 = cd_of("A2")
    assert reduced_words(word_to_element([], a2), a2).words == ((),)
    w0 = word_to_element([1, 2, 1], a2)
    rws = reduced_words(w0, a2)
    assert rws.words == ((1, 2, 1), (2, 1, 2))
    assert rws.length == 3 and rws.element == (2, 2)

    b2 = cd_of("B2")
    rws = reduced_words(word_to_element([1, 2, 1, 2], b2), b2)
    assert rws.length == 4 and len(rws.words) == 2


def test_reduced_words_of_unreduced_input():
    a2 = cd_of("A2")
    w = word_to_element([1, 1, 2], a2)  # same element as [2]
    rws = reduced_words(w, a2)
    assert rws.words == ((2,),) and rws.length == 1


@pytest.mark.parametrize("text", ["A3", "G2", "F4", "E8"])
def test_reduced_words_check_rejects_wrong_start(monkeypatch, text):
    # the words of w s_1 all walk to the wrong start; only the first-word check
    # tells w s_1 from w, and it must do so where detA = 1 (G2, F4, E8) too
    cd = cd_of(text)
    w = word_to_element([1, 2], cd)
    wrong = P_map(word_to_element([1, 2, 1], cd), cd)
    monkeypatch.setattr(weylipse.ordering, "P_map", lambda elem, cd: wrong)
    with pytest.raises(InvariantError):
        reduced_words(w, cd)


def test_reduced_words_t_walk_rejects_wrong_descent(monkeypatch):
    a3 = cd_of("A3")
    w = word_to_element([1, 3], a3)
    start = P_map(w, a3)
    t_step = weylipse.ordering._t_step
    wrong = (0, 1, 0)  # P(s_2)

    def corrupted(i, p, h, cd):
        # stripping s_3 lands on P(s_2), with its own h, instead of P(s_1);
        # the first word (1, 3) stays right
        if (i, p) == (2, start):
            return wrong, h_vector(wrong, cd)
        return t_step(i, p, h, cd)

    monkeypatch.setattr(weylipse.ordering, "_t_step", corrupted)
    with pytest.raises(InvariantError, match=r"word \(3, 2\)"):
        reduced_words(w, a3)


@pytest.mark.parametrize("text", ["A2", "B2", "G2", "A3", "B3"])
def test_reduced_words_match_exhaustive_search(text):
    cd = cd_of(text)
    table = build_group_table(cd)
    longest = max(len(table.elements[p].word) for p in table.nodes)
    oracle = exhaustive_word_search(cd, longest)
    for p in table.nodes:
        w = table.elements[p]
        rws = reduced_words(w, cd)
        assert set(rws.words) == oracle[p][2]
        assert all(len(word) == rws.length for word in rws.words)


# --- primary poset ---


def test_primary_poset_small():
    a1 = primary_poset(table_of("A1"))
    assert a1.nodes == ((0,), (1,))
    assert sorted((a1.nodes[a], a1.nodes[b]) for a, b in a1.covers) == [((0,), (1,))]

    a2 = primary_poset(table_of("A2"))
    covers = {(a2.nodes[a], a2.nodes[b]) for a, b in a2.covers}
    assert ((0, 0), (1, 0)) in covers and ((0, 0), (0, 1)) in covers
    assert ((2, 1), (2, 2)) in covers and ((1, 2), (2, 2)) in covers
    assert a2.kind == "primary"


@pytest.mark.parametrize("text", ["A3", "B3", "D4", "G2xA1"])
def test_primary_poset_is_transitive_reduction(text):
    table = table_of(text)
    poset = primary_poset(table)
    relation = poset.relation()
    # reachability over covers equals componentwise comparability
    comp = componentwise_pairs(poset.nodes)
    index = {v: i for i, v in enumerate(poset.nodes)}
    assert relation == {(index[a], index[b]) for a, b in comp}
    # and no cover is implied by two others
    for a, b in poset.covers:
        assert not any(
            (a, c) in relation and (c, b) in relation
            for c in range(len(poset.nodes))
            if c not in (a, b)
        )
    if text == "A3":
        # the pair quoted for the order comparison is comparable here
        assert (index[(0, 2, 2)], index[(1, 2, 3)]) in relation


# --- link-filter construction ---


def test_a3_filter_deletes_exactly_the_two_named_links():
    table = table_of("A3")
    base = primary_poset(table)
    filtered = bruhat_from_primary(table)
    assert filtered.kind == "bruhat_primary_filtered"
    deleted = base.covers - filtered.covers
    nodes = base.nodes
    assert {(nodes[a], nodes[b]) for a, b in deleted} == {
        ((0, 2, 2), (1, 2, 3)),
        ((2, 2, 0), (3, 2, 1)),
    }
    # the paper's difference vector: both deleted links differ by (1,0,1)
    for a, b in deleted:
        assert tuple(y - x for x, y in zip(nodes[a], nodes[b])) == (1, 0, 1)


@pytest.mark.parametrize("text", ["A2", "B2", "G2"])
def test_rank2_filter_deletes_nothing(text):
    table = table_of(text)
    assert bruhat_from_primary(table).covers == primary_poset(table).covers


# --- subword construction against the permutation-criterion oracle ---


def test_a3_subword_order_equals_permutation_criterion():
    table = table_of("A3")
    subword = bruhat_from_subwords(table)
    assert subword.kind == "bruhat_subword"
    index = {v: i for i, v in enumerate(subword.nodes)}
    oracle = {(index[a], index[b]) for a, b in a3_bruhat_pairs(table)}
    assert subword.relation() == oracle


def test_a3_comparability_discrepancies_against_subword_order():
    table = table_of("A3")
    subword = bruhat_from_subwords(table)
    nodes = subword.nodes
    index = {v: i for i, v in enumerate(nodes)}
    rel = subword.relation()
    discrepant = {
        (a, b) for a, b in componentwise_pairs(nodes) if (index[a], index[b]) not in rel
    }
    named = {((0, 2, 2), (1, 2, 3)), ((2, 2, 0), (3, 2, 1))}
    assert named <= discrepant
    assert discrepant == named | {
        ((0, 2, 1), (1, 2, 3)),
        ((0, 2, 1), (2, 2, 3)),
        ((0, 2, 2), (2, 2, 3)),
        ((1, 2, 0), (3, 2, 1)),
        ((1, 2, 0), (3, 2, 2)),
        ((2, 2, 0), (3, 2, 2)),
    }
    # at the level of Hasse links the named pairs are the only discrepancies
    base = primary_poset(table)
    link_discrepant = {
        (nodes[a], nodes[b]) for a, b in base.covers if (a, b) not in rel
    }
    assert link_discrepant == named


# A6 (|W| = 5040, 3545879 related pairs) keeps the check at scale
@pytest.mark.parametrize(
    "text", ["A3", "A4", "A5", "A6", "B3", "B4", "B5", "C3", "D4", "D5", "F4", "G2xA1"]
)
def test_subword_order_matches_reflection_oracle(text):
    cd = cd_of(text)
    poset = bruhat_from_subwords(build_group_table(cd))
    covers = {(poset.nodes[a], poset.nodes[b]) for a, b in poset.covers}
    assert covers == bruhat_covers_by_reflections(cd)


def test_reflection_oracle_refuses_a_reflection_off_its_nodes(monkeypatch):
    real = oracles.orbit_by_closure
    monkeypatch.setattr(oracles, "orbit_by_closure", lambda a, cd: real(a, cd)[:-1])
    with pytest.raises(InvariantError, match="leaves the main orbit"):
        bruhat_covers_by_reflections(cd_of("A2"))


@pytest.mark.parametrize("text", ["A2", "B2", "G2", "A3", "B3", "D4"])
def test_filter_is_subrelation_of_subword(text):
    table = table_of(text)
    rel_filtered = bruhat_from_primary(table).relation()
    rel_subword = bruhat_from_subwords(table).relation()
    assert rel_filtered <= rel_subword
    if text in ("A2", "B2", "G2"):
        assert rel_filtered == rel_subword
    else:
        assert rel_filtered < rel_subword  # the link filter loses relations


@pytest.mark.parametrize(
    "text",
    [
        "A2", "A3", "A4", "A5", "B3", "B4", "C3", "C4", "D4", "D5", "F4", "G2",
        "G2xA1", "B2xA1", "A2xA2", "B3xA1",
    ],
)
def test_link_filter_adds_no_relation(text):
    """The link filter may lose Bruhat relations but never adds one: a kept link
    has P(w) - P(u) = m beta with m > 0, and P - delta of both lies on the sphere
    of radius |delta|, which forces w delta = s_beta u delta, so w = s_beta u,
    with l(w) > l(u) since <u delta, beta> > 0."""
    table = table_of(text)
    assert relation_counts(bruhat_from_primary(table), bruhat_from_subwords(table))[3] == 0


@pytest.mark.parametrize("text", ["A2", "B2", "G2", "A3", "B3", "D4"])
def test_subword_order_within_componentwise_order(text):
    table = table_of(text)
    poset = bruhat_from_subwords(table)
    index = {v: i for i, v in enumerate(poset.nodes)}
    comp = {(index[a], index[b]) for a, b in componentwise_pairs(poset.nodes)}
    assert poset.relation() <= comp


def test_subword_poset_extremes():
    table = table_of("A2")
    poset = bruhat_from_subwords(table)
    rel = {(poset.nodes[a], poset.nodes[b]) for a, b in poset.relation()}
    bottom, top = (0, 0), (2, 2)
    for v in poset.nodes:
        if v != bottom:
            assert (bottom, v) in rel
        if v != top:
            assert (v, top) in rel


@pytest.mark.parametrize("text", ["A3", "B3", "D4", "F4"])
def test_relation_matches_dfs_reachability(text):
    table = table_of(text)
    for poset in (primary_poset(table), bruhat_from_primary(table), bruhat_from_subwords(table)):
        assert poset.relation() == reachability_by_dfs(poset.covers, len(poset.nodes))


@pytest.mark.parametrize("text", ["A3", "B3", "D4", "F4"])
def test_relation_counts_match_pair_sets(text):
    table = table_of(text)
    filtered, subword = bruhat_from_primary(table), bruhat_from_subwords(table)
    for found, truth in ((filtered, subword), (subword, filtered), (subword, subword)):
        rel_f, rel_t = found.relation(), truth.relation()
        expected = (len(rel_f), len(rel_t), len(rel_t - rel_f), len(rel_f - rel_t))
        assert relation_counts(found, truth) == expected


def test_relation_rejects_cover_going_down_in_node_order():
    nodes = ((0, 0), (0, 1), (1, 1))
    assert Poset(nodes=nodes, covers=frozenset({(0, 1), (1, 2)}), kind="chain").relation() == {
        (0, 1), (1, 2), (0, 2)
    }
    for covers in ({(1, 0)}, {(0, 1), (2, 1)}, {(1, 1)}):
        with pytest.raises(InvariantError):
            Poset(nodes=nodes, covers=frozenset(covers), kind="chain").relation()


def test_hasse_rejects_down_set_reaching_up_in_node_order():
    assert sorted(_hasse([0b1, 0b11, 0b111])) == [(0, 1), (1, 2)]
    # node 0 above node 1, node 1 above the next node, node 1 above a node past the end
    for down in ([0b11, 0b10], [0b1, 0b111, 0b111], [0b1, 0b1011]):
        with pytest.raises(InvariantError, match="holds a node not below it in node order"):
            _hasse(down)
    # a down set holds its own node
    with pytest.raises(InvariantError, match="down set of node 1 misses the node"):
        _hasse([0b1, 0b1])


def test_subword_order_rejects_parent_after_the_element():
    cd = cd_of("A2")
    table = build_group_table(cd)
    assert table.elements[(1, 0)].word == (1,)
    # s_2 is no descent of s_1: the parent T_2(1, 0) = (1, 2) comes after (1, 0)
    table.elements[(1, 0)] = WeylElement((2,), cd.A)
    with pytest.raises(InvariantError, match=r"parent \(1, 2\) of \(1, 0\)"):
        bruhat_from_subwords(table)


def test_down_set_masks_refuse_past_their_byte_cap(monkeypatch):
    # E6 stays under the cap, D7 does not: both are read off |W|, neither is built
    assert _mask_budget(weyl_order(cd_of("E6"))) == 51840**2 // 16 <= weylipse.ordering.MASK_BYTE_CAP
    with pytest.raises(CapExceededError, match="322560 nodes need about 6502809600 bytes"):
        _mask_budget(weyl_order(cd_of("D7")))
    # past a lowered cap, the componentwise order refuses before a mask is built
    monkeypatch.setattr(weylipse.ordering, "MASK_BYTE_CAP", 3)
    nodes = [(0,)] * 8  # 8 * 8 // 16 = 4 bytes
    with pytest.raises(CapExceededError, match="8 nodes need about 4 bytes"):
        _componentwise_down(nodes)
    table = table_of("A3")
    with pytest.raises(CapExceededError, match="24 nodes need about 36 bytes"):
        primary_poset(table)
    # the subword covers are walked from the parent's, with no mask to refuse
    subword = bruhat_from_subwords(table)
    covers = {(subword.nodes[a], subword.nodes[b]) for a, b in subword.covers}
    assert covers == bruhat_covers_by_reflections(table.cd)


def test_order_checks_survive_optimized_mode():
    src = os.path.dirname(os.path.dirname(weylipse.ordering.__file__))
    code = (
        "import contextlib, io\n"
        "import weylipse.ordering as o\n"
        "from weylipse import InvariantError, WeylElement, build_cartan, build_group_table, parse_type\n"
        "from weylipse.cli import main\n"
        "def outcome(call):\n"
        "    try:\n"
        "        call()\n"
        "    except InvariantError:\n"
        "        return 'raised'\n"
        "    return 'returned'\n"
        "print(outcome(lambda: o._hasse([0b11, 0b10])))\n"
        "cd = build_cartan(parse_type('A2'))\n"
        "table = build_group_table(cd)\n"
        "table.elements[(1, 0)] = WeylElement((2,), cd.A)\n"
        "print(outcome(lambda: o.bruhat_from_subwords(table)))\n"
        "o._componentwise_down = lambda nodes: [(1 << len(nodes)) - 1] * len(nodes)\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        "    code = main(['bruhat', 'A2', '--method', 'primary'])\n"
        "print(code, repr(err.getvalue()))\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    raised, raised_too, cli = proc.stdout.splitlines()
    assert (raised, raised_too) == ("raised", "raised")
    assert cli == "2 'error: down set of node 0 holds a node not below it in node order\\n'"


# --- DOT output ---


def test_emit_dot_small():
    a1 = primary_poset(table_of("A1"))
    text = emit_dot(a1)
    assert text == (
        'digraph "primary" {\n'
        "  rankdir=BT;\n"
        "  node [shape=box];\n"
        '  n0 [label="(0)"];\n'
        '  n1 [label="(1)"];\n'
        "  { rank=same; n0; }\n"
        "  { rank=same; n1; }\n"
        "  n0 -> n1;\n"
        "}\n"
    )
    assert emit_dot(a1) == text  # byte-identical across calls

    a2 = primary_poset(table_of("A2"))
    dot = emit_dot(a2)
    assert dot.count(" -> ") == len(a2.covers)
    assert dot.count("label=") == 6


def test_emit_dot_empty():
    empty = Poset(nodes=(), covers=frozenset(), kind="primary", ranks=())
    assert emit_dot(empty) == 'digraph "primary" {\n  rankdir=BT;\n  node [shape=box];\n}\n'


def test_reduced_words_rejects_non_orbit_vector():
    cd = cd_of("A2")
    with pytest.raises(NotInMainOrbitError):
        from weylipse import element_from_pvector

        element_from_pvector((3, 0), cd)
