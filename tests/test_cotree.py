import copy
import gc
import hashlib
import pickle
import random
import re
import time
import tracemalloc
from array import array
from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ftmd import (
    Complement,
    EmptyGraphError,
    Leaf,
    NotCographError,
    Union,
    build_cotree,
    complement_node,
    format_cotree,
    from_edges,
    parse_cotree,
    random_cotree,
    realize,
    solve,
    union_node,
)
from ftmd.cli import main
from ftmd.cotree import (
    COMPLEMENTED,
    LABEL_LIMIT,
    LEAF,
    LEAF_PAIR,
    LEAF_RIGHT,
    UNION,
    flat,
    fold_leaves,
    iter_nodes,
    leaf_count,
    leaf_labels,
    neighbour_rows,
    node_count,
    realises,
    root_components,
)
import ftmd.cotree as cotree_module
from strategies import cotrees, enumerate_cotrees, is_normalized, relabel, threshold_chain
import reference_cotree
from reference_cotree import find_induced_p4


def test_build_k2():
    t = build_cotree(from_edges(2, [(0, 1)]))
    assert t == complement_node(union_node(Leaf(0), Leaf(1)))


def assert_induced_p4(g, witness):
    assert witness is not None
    a, b, c, d = witness
    assert b in g.adj[a] and c in g.adj[b] and d in g.adj[c]
    assert c not in g.adj[a] and d not in g.adj[a] and d not in g.adj[b]


def test_build_rejects_p4_with_witness():
    p4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotCographError) as exc:
        build_cotree(p4)
    assert "not a cograph" in str(exc.value)
    assert_induced_p4(p4, exc.value.witness)


def test_witness_from_twin_free_remainder():
    # P4 with K30, I30, K30, I30 substituted for its vertices: 120 vertices,
    # and twin reduction leaves one vertex per module.
    blocks = [range(30 * i, 30 * i + 30) for i in range(4)]
    edges = [(u, v) for i in (0, 2) for u, v in combinations(blocks[i], 2)]
    edges += [(u, v) for i in range(3) for u in blocks[i] for v in blocks[i + 1]]
    g = from_edges(120, edges)
    with pytest.raises(NotCographError) as exc:
        build_cotree(g)
    assert_induced_p4(g, exc.value.witness)


def random_graph(n, rng, p=0.5):
    return from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def thin_spider(k):
    # A clique on 0 .. k-1, and k + i adjacent to i only.
    edges = list(combinations(range(k), 2)) + [(i, k + i) for i in range(k)]
    return from_edges(2 * k, edges)


@pytest.mark.parametrize(
    "g",
    [
        random_graph(65, random.Random(65)),
        random_graph(200, random.Random(200)),
        thin_spider(100),
        from_edges(200, [(v, v + 1) for v in range(199)]),
    ],
    ids=["gnp65", "gnp200", "spider100", "path200"],
)
def test_witness_on_large_twin_free_graphs(g):
    with pytest.raises(NotCographError) as exc:
        build_cotree(g)
    assert_induced_p4(g, exc.value.witness)


def test_witness_on_every_rejected_small_graph():
    rng = random.Random(8)
    rejected = 0
    for _ in range(2000):
        n = rng.randint(4, 8)
        g = random_graph(n, rng, rng.choice((0.3, 0.5, 0.7)))
        try:
            build_cotree(g)
        except NotCographError as exc:
            assert_induced_p4(g, exc.witness)
            rejected += 1
        else:
            assert find_induced_p4(g) is None
    assert rejected > 500


def test_build_reads_the_adjacency_without_changing_it():
    rng = random.Random(3)
    graphs = [realize(random_cotree(40, seed)) for seed in range(5)]
    graphs += [from_edges(9, [(0, 1), (1, 2), (2, 3)])]
    graphs += [from_edges(30, [e for e in combinations(range(30), 2) if rng.random() < 0.4])]
    for g in graphs:
        before = [set(nbrs) for nbrs in g.adj]
        try:
            build_cotree(g)
        except NotCographError:
            pass
        assert [set(nbrs) for nbrs in g.adj] == before


def test_build_peak_memory_leaves_out_an_adjacency_copy():
    # A set copy of the adjacency alone takes 2.6 to 8.3 MB on these graphs
    # (24k to 109k edges); the reduction's own lists take about 0.3 MB.
    for seed in range(3):
        g = realize(random_cotree(512, seed))
        tracemalloc.start()
        try:
            build_cotree(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_build_rejects_empty_graph():
    with pytest.raises(EmptyGraphError):
        build_cotree(from_edges(0, []))


def test_build_p3_realizes_back():
    p3 = from_edges(3, [(0, 1), (1, 2)])
    t = build_cotree(p3)
    assert is_normalized(t)
    assert realize(t) == p3
    assert format_cotree(t) == "(C (U (C (U L0 L2)) L1))"


def test_realize_examples():
    assert realize(complement_node(union_node(Leaf(0), Leaf(1)))).edges() == [(0, 1)]
    assert realize(union_node(Leaf(0), Leaf(1))).edges() == []


def test_realize_rejects_bad_labels():
    with pytest.raises(ValueError):
        realize(union_node(Leaf(0), Leaf(2)))
    with pytest.raises(ValueError):
        realize(union_node(Leaf(0), Leaf(0)))
    # The walk checks the labels itself, a repeat before a label too large.
    with pytest.raises(ValueError, match=r"must lie in 0 \.\. 1$"):
        neighbour_rows(union_node(Leaf(0), Leaf(2)))
    with pytest.raises(ValueError, match="repeat"):
        neighbour_rows(union_node(Leaf(0), Leaf(0)))
    with pytest.raises(ValueError, match="repeat"):
        neighbour_rows(complement_node(union_node(Leaf(5), Leaf(5))))


def test_realize_on_a_subtree_view():
    # Leaves are 0 .. n-1 left to right, so the views on the left spine hold
    # exactly 0 .. k-1 and realize as their own text does; any other view
    # holds some label k or above.
    spine = 0
    for seed in range(30):
        tree = random_cotree(24, seed)
        for view in iter_nodes(tree):
            if view == tree:
                continue
            k = view.leaves
            if leaf_labels(view)[0] == 0:
                spine += 1
                assert realize(view) == realize(parse_cotree(format_cotree(view)))
            else:
                with pytest.raises(ValueError, match=rf"must lie in 0 \.\. {k - 1}$"):
                    realize(view)
    assert spine > 30


@given(cotrees(max_n=12))
def test_realize_build_roundtrip(t):
    g = realize(t)
    rebuilt = build_cotree(g)
    assert is_normalized(rebuilt)
    assert realize(rebuilt) == g


def test_realize_build_roundtrip_large_batch():
    import random

    rng = random.Random(321)
    for _ in range(1000):
        n = rng.randint(1, 32)
        g = realize(random_cotree(n, rng.randrange(2**31)))
        assert realize(build_cotree(g)) == g


def outcome(recognise, g):
    try:
        return format_cotree(recognise(g))
    except NotCographError:
        return None


def test_build_matches_reference_on_all_small_graphs():
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = from_edges(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            assert outcome(build_cotree, g) == outcome(reference_cotree.build_cotree, g)


def test_build_is_exact_when_codes_collide(monkeypatch):
    # Codes 1 and 3 only: nearly every bucket mixes twins with non-twins,
    # and the exact check alone decides each merge.
    class FewCodes(random.Random):
        def getrandbits(self, k):
            return super().getrandbits(2)

    rng = random.Random(77)
    graphs = [
        from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        for n in range(1, 9)
        for _ in range(60)
    ]
    graphs += [realize(random_cotree(n, n)) for n in range(1, 80, 3)]
    expected = [outcome(reference_cotree.build_cotree, g) for g in graphs]
    monkeypatch.setattr(cotree_module, "random", SimpleNamespace(Random=FewCodes))
    for g, tree in zip(graphs, expected):
        assert outcome(build_cotree, g) == tree
        if tree is None:
            with pytest.raises(NotCographError) as exc:
                build_cotree(g)
            assert_induced_p4(g, exc.value.witness)


def test_build_matches_reference_on_relabelled_random_cotrees():
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(1, 300)
        labels = list(range(n))
        rng.shuffle(labels)
        t = relabel(random_cotree(n, rng.randrange(2**31)), dict(enumerate(labels)))
        g = realize(t)
        assert format_cotree(build_cotree(g)) == format_cotree(
            reference_cotree.build_cotree(g)
        )


def assert_realizes_as_reference(t):
    expected = reference_cotree.realize(t)
    assert realize(t) == expected
    rows = neighbour_rows(t)
    assert list(map(set, rows)) == list(expected.adj)
    assert sum(map(len, rows)) == 2 * len(expected.edges())  # no repeats


def test_realize_matches_reference():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 60)
        labels = list(range(n))
        rng.shuffle(labels)
        t = relabel(random_cotree(n, rng.randrange(2**31)), dict(enumerate(labels)))
        assert_realizes_as_reference(t)
    for t in enumerate_cotrees(6):
        labels = list(range(t.leaves))
        rng.shuffle(labels)
        assert_realizes_as_reference(relabel(t, dict(enumerate(labels))))
    # Complemented leaves, alone and under a union.
    assert_realizes_as_reference(parse_cotree("(C L0)"))
    assert_realizes_as_reference(parse_cotree("(U (C L0) L1)"))
    assert_realizes_as_reference(threshold_chain(256))
    # The reference realizer costs about n^3.2 on a chain, so at 2,048
    # vertices the rows are checked against the chain's own rule: u < v are
    # adjacent exactly when v is odd, a dominating vertex.
    n = 2048
    for v, row in enumerate(neighbour_rows(threshold_chain(n))):
        lower = list(range(v)) if v % 2 else []
        assert sorted(row) == lower + list(range(v + 1 + v % 2, n, 2))


def mutants(t):
    """``(tree, graph)`` pairs near ``(t, realize(t))``: the graph with one
    vertex pair flipped, the tree with two labels swapped, and the tree with
    the complement flag of one union node flipped."""
    g = realize(t)
    edges = set(g.edges())
    kinds, labels = flat(t)
    for a, b in combinations(range(t.leaves), 2):
        yield t, from_edges(t.leaves, edges ^ {(a, b)})
        yield relabel(t, {**{v: v for v in labels}, a: b, b: a}), g
    for pos, kind in enumerate(kinds):
        if kind & cotree_module.UNION:
            flipped = bytearray(kinds)
            flipped[pos] ^= cotree_module.COMPLEMENTED
            yield cotree_module._from_arrays(flipped, labels), g


def test_realises_exactly_when_realize_gives_the_graph():
    rng = random.Random(7)
    trees = list(enumerate_cotrees(6))
    for _ in range(20):
        n = rng.randint(7, 16)
        trees.append(relabel(random_cotree(n, rng.randrange(2**31)), rng.sample(range(n), n)))
    rejected = 0
    for t in trees:
        assert realises(t, realize(t)) is None
        for tree, g in mutants(t):
            reason = realises(tree, g)
            assert (reason is None) == (realize(tree) == g)
            rejected += reason is not None
    assert rejected > 40_000  # most mutants change the graph


def test_realises_names_the_reason():
    p3 = from_edges(3, [(0, 1), (1, 2)])
    k3 = from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert realises(build_cotree(k3), p3) == "the graph lacks the cotree's edge 0 2"
    assert realises(build_cotree(p3), k3) == "the cotree has 2 edges, the graph 3"
    assert realises(parse_cotree("(U L0 L1)"), p3) == "the cotree has 2 leaves, the graph 3 vertices"
    with pytest.raises(ValueError, match="repeat"):
        realises(parse_cotree("(C (U L0 (U L1 L1)))"), k3)


def timed_build(g):
    start = time.perf_counter()
    t = build_cotree(g)
    return t, time.perf_counter() - start


# The bounds below are generous: twin reduction needs well under a second on
# each graph, while the recursive recogniser needs over a minute on the chain,
# and quadratic handling of large hash buckets would exceed them on the
# other two.
def test_build_deep_threshold_chain_in_linear_time():
    chain = threshold_chain(1024)
    g = realize(chain)
    assert sum(map(len, g.adj)) // 2 == 1024**2 // 4
    t, seconds = timed_build(g)
    assert seconds < 10
    # The chain is about 2n deep: equality and hashing must not recurse.
    assert t == chain
    assert hash(t) == hash(chain)
    assert solve(g) == solve(g)


def test_build_large_edgeless_graph_in_linear_time():
    n = 2**16
    t, seconds = timed_build(from_edges(n, []))
    assert leaf_labels(t) == list(range(n))
    assert node_count(t) == 2 * n - 1
    assert seconds < 10


def test_build_large_star_with_isolated_vertices_in_linear_time():
    k = 2**15
    g = from_edges(2 * k + 1, [(0, v) for v in range(1, k + 1)])
    t, seconds = timed_build(g)
    assert realize(t) == g
    assert seconds < 10


def joined_to_disjoint_edges(k):
    """Vertex 0 joined to k disjoint edges: one union module gains a child
    on every merge."""
    edges = [(0, v) for v in range(1, 2 * k + 1)]
    edges += [(v, v + 1) for v in range(1, 2 * k + 1, 2)]
    return from_edges(2 * k + 1, edges)


def test_build_growing_union_module_in_linear_time():
    for k in range(1, 7):
        g = joined_to_disjoint_edges(k)
        assert format_cotree(build_cotree(g)) == format_cotree(
            reference_cotree.build_cotree(g)
        )
    g = joined_to_disjoint_edges(2**16)
    t, seconds = timed_build(g)
    assert realize(t) == g
    assert seconds < 10


def test_union_chain_is_left_deep_and_ascending():
    g = from_edges(4, [])  # four isolated vertices
    t = build_cotree(g)
    assert t == union_node(union_node(union_node(Leaf(0), Leaf(1)), Leaf(2)), Leaf(3))


def test_random_cotree_single_leaf():
    assert random_cotree(1, 99) == Leaf(0)


def test_random_cotree_rejects_zero():
    with pytest.raises(ValueError):
        random_cotree(0, 1)


@given(st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_random_cotree_is_deterministic_and_normalized(n, seed):
    t1 = random_cotree(n, seed)
    t2 = random_cotree(n, seed)
    assert t1 == t2
    assert is_normalized(t1)
    assert leaf_labels(t1) == list(range(n))
    assert leaf_count(t1) == n
    # n-1 unions and n leaves, plus at most one complement per union.
    assert 2 * n - 1 <= node_count(t1) <= 3 * n - 2


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_random_cotree_realizes_to_a_cograph(n, seed):
    g = realize(random_cotree(n, seed))
    build_cotree(g)  # must not raise


def test_equality_and_hash_follow_the_tree():
    a = union_node(Leaf(0), Leaf(1))
    assert a == union_node(Leaf(0), Leaf(1))
    assert hash(a) == hash(union_node(Leaf(0), Leaf(1)))
    assert a != union_node(Leaf(1), Leaf(0))
    assert a != complement_node(a)
    with pytest.raises(TypeError):
        Union(Leaf(0), Leaf(1), 3)
    assert Leaf(0) != Leaf(1) and Leaf(0) != 0
    # Same post-order leaves, different shape.
    left = union_node(union_node(Leaf(0), Leaf(1)), Leaf(2))
    right = union_node(Leaf(0), union_node(Leaf(1), Leaf(2)))
    assert left != right
    assert len({left, right, union_node(union_node(Leaf(0), Leaf(1)), Leaf(2))}) == 2


def test_view_types_name_their_builders():
    pair = union_node(Leaf(0), Leaf(1))
    with pytest.raises(TypeError, match=r"union_node\(left, right\)"):
        Union(Leaf(0), Leaf(1))
    with pytest.raises(TypeError, match=r"complement_node\(child\)"):
        Complement(pair)
    assert isinstance(complement_node(pair), Complement)


@pytest.mark.parametrize("vertex", [-1, 2**31])
def test_leaf_rejects_out_of_range_labels(vertex):
    with pytest.raises(ValueError, match="out of range"):
        Leaf(vertex)
    assert Leaf(2**31 - 1).vertex == 2**31 - 1


def test_double_complement_collapses():
    t = complement_node(complement_node(union_node(Leaf(0), Leaf(1))))
    assert t == union_node(Leaf(0), Leaf(1))


def test_format_examples():
    assert format_cotree(Leaf(7)) == "L7"
    assert format_cotree(union_node(Leaf(0), Leaf(1))) == "(U L0 L1)"
    assert (
        format_cotree(complement_node(union_node(Leaf(0), Leaf(1)))) == "(C (U L0 L1))"
    )


@given(cotrees(max_n=25))
def test_parse_format_roundtrip(t):
    assert parse_cotree(format_cotree(t)) == t
    assert format_cotree(parse_cotree(format_cotree(t))) == format_cotree(t)


def test_parse_normalizes_double_complement():
    assert parse_cotree("(C (C L0))") == Leaf(0)


PARSE_ERRORS = {
    "": "empty cotree text",
    "(U L0)": "U takes exactly two subtrees",
    "(U L0 L1 L2)": "U takes exactly two subtrees",
    "(C)": "C takes exactly one subtree",
    "(C L0 L1)": "C takes exactly one subtree",
    "L0 L1": "multiple top-level cotree terms",
    "(X L0 L1)": "expected U or C after '('",
    "(U L0 L1": "unbalanced '('",
    "U L0 L1)": "operator 'U' outside parentheses",
    "(U La L1)": "bad token 'La'",
    "foo": "bad token 'foo'",
    "L0)": "unbalanced ')'",
    "()": "expected U or C after '('",
    "(U L0 L1) L2": "multiple top-level cotree terms",
    "(U L0 L1))": "unbalanced ')'",
    "(U L0 (C))": "C takes exactly one subtree",
    "L": "bad token 'L'",
    "L1a": "bad token 'L1a'",
    "(C L-1)": "bad token 'L-1'",
    # Leaf labels are ASCII decimals: no other script's digits.
    "(U L\u0663 L0)": "bad token 'L\u0663'",
    # More digits than int() converts.
    "L" + "1" * 5000: f"leaf label 'L{'1' * 5000}' out of range",
    # A second top-level term is an error once it is finished: before any
    # token after it, but after its own operator's error or an operator
    # left open in it.
    "L0 (U L1 L2 L3)": "U takes exactly two subtrees",
    "L0 (C L1 L2)": "C takes exactly one subtree",
    "L0 L1 (U L2)": "multiple top-level cotree terms",
    "L0 L1 )": "multiple top-level cotree terms",
    "L0 L1 (U": "multiple top-level cotree terms",
    "L0 L1 x": "multiple top-level cotree terms",
    "L0 (U L1": "unbalanced '('",
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS), ids=lambda text: text[:20])
def test_parse_rejects_bad_input(text):
    with pytest.raises(ValueError) as exc:
        parse_cotree(text)
    assert str(exc.value) == PARSE_ERRORS[text]


def _parse_outcome(text, parse=parse_cotree):
    """The tree ``parse`` returns, or the message it raises."""
    try:
        return parse(text)
    except ValueError as err:
        return str(err)


def _outcomes_by_slice_size(monkeypatch, texts):
    """Outcomes for each text unsliced, then with each slice size 1 .. 8."""
    runs = [[_parse_outcome(text) for text in texts]]
    for size in range(1, 9):
        monkeypatch.setattr(cotree_module, "_PARSE_SLICE", size)
        runs.append([_parse_outcome(text) for text in texts])
    return runs


def test_sliced_parse_gives_the_unsliced_trees(monkeypatch):
    rng = random.Random(41)
    texts = []
    for i in range(60):
        tree = random_cotree(rng.randint(1, 80), rng.randrange(2**31))
        text = format_cotree(complement_node(tree) if i % 2 else tree)
        # Spacing the serializer never writes, around every parenthesis.
        texts.append(text if i % 3 else text.replace(" ", "\n  ").replace(")", " )"))
    unsliced, *sliced = _outcomes_by_slice_size(monkeypatch, texts)
    assert all(not isinstance(t, str) for t in unsliced)
    for outcomes in sliced:
        assert outcomes == unsliced


def test_sliced_parse_raises_the_unsliced_messages(monkeypatch):
    rng = random.Random(43)
    pieces = ["(", ")", "(U", "(C", "U", "C", "L", "L1", "L23", "x", " ", " ", "\t"]
    texts = list(PARSE_ERRORS)
    texts += ["".join(rng.choices(pieces, k=rng.randint(0, 14))) for _ in range(3000)]
    unsliced, *sliced = _outcomes_by_slice_size(monkeypatch, texts)
    assert unsliced[: len(PARSE_ERRORS)] == list(PARSE_ERRORS.values())
    for outcomes in sliced:
        assert outcomes == unsliced


# Hostile tokens to plant in a formatted tree, each as the pattern of what
# it replaces and its replacement: separators that str.split() takes and
# bytes.split() does not, glued tokens, and tokens that the bulk checks
# must refuse or read as the reference parser does.
PLANTED = {
    **{ascii(sep): (" ", sep) for sep in "\x1c\x1d\x1e\x1f\x85\xa0"},
    "L-arabic-digit": (r"L\d+", "L\u0663"),
    "L1L2": (r"(L\d+) (L\d+)", r"\1\2"),
    "L 1": (r"L(\d+)", r"L \1"),
    "L1 2": (r"L\d+ ", r"\g<0>7 "),
    "(UL0": (r"\(U L", "(UL"),
    "(L0": (r"\(U ", "("),
    "x": (r"L\d+", "x"),
    "L": (r"L\d+", "L"),
    "U": (r"L\d+", "U"),
    "C": (r"L\d+", "C"),
    "1L": (r"L\d+", "1L"),
    "L+1": (r"L\d+", "L+1"),
    "L007": (r"L\d+", "L007"),
    "L2**31": (r"L\d+", f"L{2**31}"),
}


@pytest.mark.parametrize("name", list(PLANTED))
def test_parse_matches_the_token_loop_with_a_planted_token(monkeypatch, name):
    monkeypatch.setattr(cotree_module, "_PARSE_SLICE", 1 << 10)
    pattern, planted = PLANTED[name]
    rng = random.Random(name)
    trees = 0
    for _ in range(4):
        tree = random_cotree(rng.randint(400, 500), rng.randrange(2**31))
        text = format_cotree(tree)
        assert len(text) > 4 * cotree_module._PARSE_SLICE
        # Formatted text takes the byte path in every slice.
        labels = array("i")
        for piece in cotree_module._slices(text):
            assert cotree_module._bulk_ops(piece, labels) is not None
        assert labels == flat(tree)[1]
        matches = list(re.finditer(pattern, text))
        for where in (0.01, 0.5, 0.99):
            m = matches[int(where * len(matches))]
            sown = text[: m.start()] + m.expand(planted) + text[m.end() :]
            outcome = _parse_outcome(sown)
            assert outcome == _parse_outcome(sown, reference_cotree.parse_cotree)
            trees += not isinstance(outcome, str)
    assert trees == (12 if pattern == " " or name == "L007" else 0)


# Token soup: separators that str.split() takes and bytes.split() does not,
# glued tokens, a spaced opener, other scripts' digits and a label past the
# range, beside the tokens of the grammar.
SOUP = [
    "(", ")", "(U", "(C", "( U", "U", "C", "L", "L1", "L23", "L1L2", "1L",
    "x", " ", " ", "\t", "\x1c", "\xa0", "L\u0663", f"L{2**31}",
]


# Spellings that the byte checks refuse and ``_token_ops`` reads as the
# formatted text: the tree comes from byte-checked and token-read slices.
RESPELLED = [("(U", "( U"), ("(C", "(\tC"), (" ", "\x1c"), (" ", "\xa0"), (" L", "\n L")]


def test_parse_matches_the_reference_on_soup_and_planted_trees(monkeypatch):
    rng = random.Random(47)
    texts = ["".join(rng.choices(SOUP, k=rng.randint(0, 14))) for _ in range(1500)]
    for _ in range(300):
        text = format_cotree(random_cotree(rng.randint(1, 40), rng.randrange(2**31)))
        at = rng.randrange(len(text) + 1)
        texts.append(text[:at] + rng.choice(SOUP) + text[at:])
        spelling, respelled = rng.choice(RESPELLED)
        at = text.rfind(spelling, 0, rng.randrange(len(text)) + len(spelling))
        if at >= 0:
            texts.append(text[:at] + respelled + text[at + len(spelling) :])
    outcomes = []
    for size in [cotree_module._PARSE_SLICE, *range(1, 9)]:
        monkeypatch.setattr(cotree_module, "_PARSE_SLICE", size)
        for text in texts:
            outcome = _parse_outcome(text)
            assert outcome == _parse_outcome(text, reference_cotree.parse_cotree), (size, text)
            outcomes.append(outcome)
    # Every message occurs, with any token quoted in it, and so do trees.
    messages = [re.sub(r"'.*'", "''", o) for o in outcomes if isinstance(o, str)]
    assert set(messages) == {re.sub(r"'.*'", "''", m) for m in PARSE_ERRORS.values()}
    assert len(outcomes) - len(messages) > 1000


def test_parse_peak_memory_stays_below_twice_the_text():
    text = format_cotree(random_cotree(2**16, 5))
    tracemalloc.start()
    try:
        parse_cotree(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text)


def test_repr_evals_back_to_the_tree():
    t = union_node(Leaf(0), complement_node(union_node(Leaf(1), Leaf(2))))
    assert repr(t) == "parse_cotree('(U L0 (C (U L1 L2)))')"
    assert eval(repr(t)) == t
    assert eval(repr(t.right.child)) == t.right.child


def test_deep_cotree_repr_pickle_and_copy():
    chain = threshold_chain(1024)
    assert eval(repr(chain), {"parse_cotree": parse_cotree}) == chain
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(chain, protocol)) == chain
    assert copy.deepcopy(chain) == chain
    assert copy.copy(chain) == chain
    solution = solve(realize(chain))
    assert pickle.loads(pickle.dumps(solution)) == solution


# sha256 of format_cotree(random_cotree(4096, seed)): generated instances,
# the benchmark's among them, must not drift when the generator changes.
RANDOM_COTREE_SHA256 = {
    0: "552321b337a3e9e0522b4f8d76457035444407e0e7e93e7bf353baa8b0749611",
    1: "6032e91ec6ea07fe975aee47d54ec79b2eaf40dae6e5c98902283652e316ceb6",
    2: "c7dbc801c6b43d0ab97e0a04f4114edb4659a72332bfff978679aef83e07206e",
}


def test_random_cotree_output_is_pinned():
    for seed, digest in RANDOM_COTREE_SHA256.items():
        text = format_cotree(random_cotree(4096, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_parse_and_generate_create_no_object_per_node():
    n = 2**14
    kept = random_cotree(n, 1)
    text = format_cotree(kept)
    for make in (lambda: parse_cotree(text), lambda: random_cotree(n, 2)):
        gc.collect()
        before = len(gc.get_objects())
        tree = make()
        assert len(gc.get_objects()) - before < 100
        assert leaf_count(tree) == n


def subexpressions(text):
    """Every node's text and its children's texts, in post-order, found by
    matching parentheses in the s-expression."""
    out = []
    open_nodes = [(0, [])]  # (start in text, finished children) per open node
    for m in re.finditer(r"\([UC]|\)|L\d+", text):
        if m[0].startswith("("):
            open_nodes.append((m.start(), []))
            continue
        start, kids = open_nodes.pop() if m[0] == ")" else (m.start(), [])
        out.append((text[start : m.end()], kids))
        open_nodes[-1][1].append(text[start : m.end()])
    return out


def test_views_match_the_reparsed_subexpressions():
    rng = random.Random(17)
    for i in range(150):
        tree = random_cotree(rng.randint(1, 200), rng.randrange(2**31))
        if i % 3 == 0:
            tree = complement_node(tree)
        nodes = list(iter_nodes(tree))
        assert nodes[-1] == tree
        expected = subexpressions(format_cotree(tree))
        for node, (sub, kids) in zip(nodes, expected, strict=True):
            assert format_cotree(node) == sub
            assert node == parse_cotree(sub) and hash(node) == hash(parse_cotree(sub))
            assert leaf_labels(node) == [int(x) for x in re.findall(r"L(\d+)", sub)]
            assert leaf_count(node) == sub.count("L")
            assert node_count(node) == sub.count("L") + sub.count("(")
            if isinstance(node, Leaf):
                assert (sub, kids) == (f"L{node.vertex}", [])
            elif isinstance(node, Union):
                assert sub.startswith("(U") and node.leaves == leaf_count(node)
                assert [node.left, node.right] == [parse_cotree(k) for k in kids]
                assert [format_cotree(node.left), format_cotree(node.right)] == kids
            else:
                assert sub.startswith("(C") and node.leaves == leaf_count(node)
                assert node.child == parse_cotree(kids[0])
                assert format_cotree(node.child) == kids[0]
        parts = root_components(tree)
        assert [leaf for part in parts for leaf in leaf_labels(part)] == leaf_labels(tree)
        assert all(not isinstance(part, Union) for part in parts)


def test_nodes_have_no_instance_dict():
    for node in (Leaf(0), union_node(Leaf(0), Leaf(1)), complement_node(Leaf(0))):
        assert not hasattr(node, "__dict__")


def test_relabel():
    t = union_node(Leaf(0), complement_node(union_node(Leaf(1), Leaf(2))))
    mapped = relabel(t, {0: 5, 1: 3, 2: 4})
    assert leaf_labels(mapped) == [5, 3, 4]
    assert node_count(mapped) == node_count(t)


def test_random_cotree_matches_the_randint_reference():
    cases = [(n, seed) for n in range(1, 65) for seed in (0, 1, 7, 2**31 - 1, -3)]
    for n, seed in cases + [(2**14, 0), (2**14, 5)]:
        expected = reference_cotree.random_cotree(n, seed)
        assert flat(random_cotree(n, seed)) == flat(expected)


def assert_formats_as_reference(t):
    assert format_cotree(t) == reference_cotree.format_cotree(t)


def test_format_cotree_matches_the_reference():
    rng = random.Random(20)
    for _ in range(60):
        tree = random_cotree(rng.randint(1, 200), rng.randrange(2**31))
        assert_formats_as_reference(tree)
        assert_formats_as_reference(complement_node(tree))
    big = relabel(random_cotree(3, 0), {0: 2**31 - 1, 1: 0, 2: 10**9})
    assert_formats_as_reference(big)
    assert_formats_as_reference(Leaf(0))
    assert_formats_as_reference(Leaf(2**31 - 1))
    texts = ("(C L0)", "(U (C L0) L1)", "(U L1 (C L0))", "(C (U (C L2) (U L0 (C L1))))")
    for text in texts:
        assert format_cotree(parse_cotree(text)) == text
        assert_formats_as_reference(parse_cotree(text))


def test_format_cotree_matches_the_reference_on_every_subtree_view():
    for seed in range(12):
        tree = random_cotree(40, seed)
        for t in (tree, complement_node(tree)):
            for view in iter_nodes(t):
                assert_formats_as_reference(view)


def test_format_cotree_matches_the_reference_on_a_deep_chain():
    chain = threshold_chain(2048)
    assert_formats_as_reference(chain)
    assert_formats_as_reference(chain.child.left)


def test_format_cotree_matches_the_reference_on_canonical_trees():
    # build_cotree's trees fold most of their unions. They have no
    # complemented leaf, so each is also written with some leaves
    # complemented, which the folds must leave alone beside the ones they fold.
    rng = random.Random(71)
    codes = Counter()
    for _ in range(80):
        n = rng.randint(1, 60)
        drawn = random_cotree(n, rng.randrange(2**31))
        tree = build_cotree(realize(relabel(drawn, rng.sample(range(n), n))))
        text = re.sub(
            r"L\d+", lambda m: f"(C {m[0]})" if rng.random() < 0.3 else m[0], format_cotree(tree)
        )
        for t in (tree, parse_cotree(text)):
            kinds = flat(t)[0]
            codes.update(fold_leaves(kinds))
            assert fold_leaves(kinds).count(LEAF | COMPLEMENTED) == kinds.count(LEAF | COMPLEMENTED)
            assert_formats_as_reference(t)
            assert parse_cotree(format_cotree(t)) == t
        assert format_cotree(parse_cotree(text)) == text
    folds = (LEAF_PAIR, LEAF_RIGHT)
    assert all(codes[code | flag] > 0 for code in folds for flag in (0, COMPLEMENTED))
    assert all(codes[kind] > 0 for kind in (LEAF, UNION, LEAF | COMPLEMENTED, UNION | COMPLEMENTED))


def test_random_cotree_and_gen_refuse_more_leaves_than_labels_before_drawing(monkeypatch, capsys):
    def no_draw(seed):
        raise AssertionError("random_cotree drew a tree")

    monkeypatch.setattr(cotree_module, "random", SimpleNamespace(Random=no_draw))
    for n in (LABEL_LIMIT + 1, 2**40, 0, -1):
        with pytest.raises(ValueError, match="leaves"):
            random_cotree(n, 1)
    assert main(["gen", str(LABEL_LIMIT + 1), "1"]) == 1
    err = capsys.readouterr().err
    assert f"must be at most {LABEL_LIMIT}" in err and "Traceback" not in err
    assert main(["gen", "-h"]) == 0
    assert f"1 .. {LABEL_LIMIT}" in capsys.readouterr().out


def test_find_induced_p4_examples():
    p4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert find_induced_p4(p4) in [(0, 1, 2, 3), (3, 2, 1, 0)]
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert find_induced_p4(c4) is None
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert find_induced_p4(star) is None
    paw = from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert find_induced_p4(paw) is None


def test_recognition_matches_p4_search_small():
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = from_edges(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            try:
                build_cotree(g)
                recognized = True
            except NotCographError:
                recognized = False
            assert recognized == (find_induced_p4(g) is None)
