"""Cotrees: recognition, realization, random generation, serialization.

A cotree is a leaf / binary-union / unary-complement expression tree whose
leaves carry the vertex ids of the graph it realizes. Trees are normalized:
a complement node never sits directly under another complement node.

A tree is two flat arrays, which ``flat`` returns: ``kinds``, a
``bytearray`` with one byte per leaf or union node in post-order, ``LEAF``
or ``UNION`` plus the ``COMPLEMENTED`` flag when a complement node sits
directly above it; and ``labels``, an ``array('i')`` of the leaf vertex ids
left to right. A subtree with k leaves is the 2k - 1 bytes ending at its
root. The functions here and ``dp.dp_run`` work on the arrays and create no
object per node. ``parse_cotree`` checks each slice of its text with bytes
operations, converts its labels with one ``map(int, ...)`` and makes one
loop step per token, or one per folded ``(U L L)``. Only a slice that fails
a check is read token by token, and its tokens feed the same loop, so an
error is named where the loop reaches it, whichever way its slice was read.
``fold_leaves`` is the one encoding of a union of two leaves, or with a
leaf on its right, as a single kind byte: ``format_cotree`` reads its kinds
folded, writing such a union in one step, and so does ``dp.dp_run``.
``random_cotree`` refuses more leaves than ``LABEL_LIMIT`` before it draws.
``Leaf``, ``Union`` and ``Complement`` are views of one subtree, typed by
its root; equality, hashing and pickling use the subtree's arrays, and
``repr`` is the ``parse_cotree`` call that rebuilds it. New trees come from
``Leaf(v)``, ``union_node`` and ``complement_node``, which concatenate the
arrays.

``build_cotree`` recognises a cograph by twin reduction: it merges vertices
with equal open or closed neighbourhoods until one is left, in O(n + m)
expected time, growing the tree's union and join modules as it goes, and
then orders each module's children into the canonical tree.
``neighbour_rows`` goes the other way in O(n + m), reading each vertex's
neighbours off the complement parity above each union node; ``realize``
makes a ``Graph`` of them, and ``ftmd gen`` writes them without one.
``realises`` checks that a tree realizes a given graph by the same walk,
without building the rows, in O(n + m): it is the first half of the
certificate behind ``ftmd solve --verify``.
``flat_checked`` is ``flat`` after the one label check of every walk: that
a subtree's k labels are distinct and below a bound, in O(k). A tree
records a pass over all its labels, so the walks of a tree and of its
subtrees against one bound check the labels once.

All traversals here are iterative; union chains (one per connected
component) and threshold-like graphs produce trees whose depth grows
linearly with the vertex count, which would overflow the recursion limit.
"""

from __future__ import annotations

import random
from array import array
from functools import cached_property
from typing import Iterator

from .graph import Graph

# Node kinds in the ``kinds`` array; COMPLEMENTED is a flag on either.
LEAF, UNION, COMPLEMENTED = 0, 1, 2
# Twin kinds: false twins share N(v), true twins share N[v].
_FALSE, _TRUE = 0, 1
# Leaf labels lie below this, the range of ``array('i')``, so a cotree has
# at most this many leaves.
LABEL_LIMIT = 2**31
# Seed of the vertex codes, fixed so that merge order and witnesses repeat.
_CODE_SEED = 0x5EED
# Characters of cotree text tokenised at a time by ``parse_cotree``.
_PARSE_SLICE = 1 << 16
# ``_bulk_ops``' byte classes: ``C`` reads as ``U``, a digit as ``0``,
# the ASCII spaces that ``bytes.split`` splits on as a space, and any other
# byte that no token has as ``!``; ``(``, ``)``, ``U`` and ``L`` stay.
_DIGITS, _SPACES = b"0123456789", b" \t\n\r\x0b\x0c"
_CLASSES = bytes(
    c if c in b"()UL"
    else ord("U") if c == ord("C")
    else ord("0") if c in _DIGITS
    else ord(" ") if c in _SPACES
    else ord("!")
    for c in range(256)
)
# An ``L`` glued after an operator's letter or after a digit. The other
# glued pairs fail ``_bulk_ops``' counts: a ``U`` or ``C`` not after a
# ``(``, or a digit run not after an ``L``.
_GLUED = (b"UL", b"0L")
_DIGIT_RUNS = bytes(c if c in _DIGITS else ord(" ") for c in range(256))
# Token spellings, digits and spaces deleted, folded to one byte each; a
# byte that stands for a whole subtree appends its kinds. ``_token_ops``
# yields the unfolded ops.
_FOLDS = ((b"(ULL)", b"Y"), (b"(U", b"u"), (b"(C", b"c"))
_CLOSE, _OPEN_U, _OPEN_C, _LEAF_OP = b")ucL"
# The kinds of a union of two leaves, plain and complemented.
_PAIR, _JOINED_PAIR = bytes((LEAF, LEAF, UNION)), bytes((LEAF, LEAF, UNION | COMPLEMENTED))
_FOLDED = {b"L": (LEAF,), b"Y": _PAIR}
_FOLDED_KINDS = [bytes(_FOLDED.get(bytes((c,)), ())) for c in range(128)]
# ``fold_leaves``' codes for a union whose children are both leaves and for
# a union whose right child is a leaf; COMPLEMENTED stays the union's flag.
LEAF_PAIR, LEAF_RIGHT = 4, 8
_LEAF_FOLDS = tuple(
    (bytes(children + (UNION | flag,)), bytes((code | flag,)))
    for children, code in (((LEAF, LEAF), LEAF_PAIR), ((LEAF,), LEAF_RIGHT))
    for flag in (0, COMPLEMENTED)
)
# ``format_cotree``'s piece by folded kind, with the space before it unless
# it starts with ``)``: a leaf, a union's closing, a whole union of two
# leaves, or a right leaf with its union's closing. ``_PUSHES`` holds what a
# kind leaves open, above what came before: nothing for a finished subtree,
# else the union's opener and, unless its right child was a leaf and is
# written already, a ``None`` for the right subtree.
_PIECES = (
    " L%d", ")", " (C L%d)", "))",  # LEAF, UNION, each complemented
    " (U L%d L%d)", None, " (C (U L%d L%d))", None,  # LEAF_PAIR
    " L%d)", None, " L%d))",  # LEAF_RIGHT
)
_PUSHES = (
    (), (" (U", None), (), (" (C (U", None),
    (), (), (), (),
    (" (U",), (), (" (C (U",),
)


class EmptyGraphError(ValueError):
    """Raised for operations that need at least one vertex."""


class NotCographError(Exception):
    """The input graph admits no union/complement decomposition.

    ``witness`` is an induced 4-vertex path in original vertex ids, in path
    order. ``build_cotree`` always gives one; ``None`` is left for callers
    that reject a graph without finding one.
    """

    def __init__(self, witness: tuple[int, int, int, int] | None = None):
        self.witness = witness
        detail = ""
        if witness is not None:
            detail = ": induced 4-vertex path " + "-".join(map(str, witness))
        super().__init__(f"not a cograph{detail}")


class _Arrays:
    """One tree's two arrays, shared by all views of it, and
    ``labels_below``: None, or the n that ``flat_checked`` has checked all
    the tree's labels against, which every subtree's labels then pass too."""

    def __init__(self, kinds: bytearray, labels: array):
        self.kinds, self.labels = kinds, labels
        self.labels_below: int | None = None

    @cached_property
    def sizes(self) -> array:
        """The leaf count of every node's subtree, counted on first use."""
        return _leaf_counts(self.kinds)


class _Node:
    """A view of the subtree rooted at ``kinds[_pos]`` of a flat tree, whose
    leaves are ``labels[_first : _first + _leaves]``. A node whose kind
    carries ``COMPLEMENTED`` has two views: a ``Complement``, and its
    ``child``, typed by the kind without the flag.
    """

    __slots__ = ("_tree", "_pos", "_first", "_leaves")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Node):
            return NotImplemented
        return self is other or flat(self) == flat(other)

    def __hash__(self) -> int:
        kinds, labels = flat(self)
        return hash((bytes(kinds), labels.tobytes()))

    def __repr__(self) -> str:
        return f"parse_cotree({format_cotree(self)!r})"

    def __reduce__(self) -> tuple:
        return _from_arrays, flat(self)

    @property
    def leaves(self) -> int:
        return self._leaves


class Leaf(_Node):
    __slots__ = ()

    def __new__(cls, vertex: int) -> Leaf:
        if not 0 <= vertex < LABEL_LIMIT:
            raise ValueError(f"leaf label {vertex!r} out of range")
        return _from_arrays(bytearray((LEAF,)), array("i", (vertex,)))

    @property
    def vertex(self) -> int:
        return self._tree.labels[self._first]


class Union(_Node):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        raise TypeError("build a union with union_node(left, right)")

    @property
    def left(self) -> Cotree:
        right = self._tree.sizes[self._pos - 1]
        return _view(self._tree, self._pos - 2 * right, self._first, self._leaves - right)

    @property
    def right(self) -> Cotree:
        right = self._tree.sizes[self._pos - 1]
        return _view(self._tree, self._pos - 1, self._first + self._leaves - right, right)


class Complement(_Node):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        raise TypeError("build a complement with complement_node(child)")

    @property
    def child(self) -> Cotree:
        return _view(self._tree, self._pos, self._first, self._leaves, False)


Cotree = Leaf | Union | Complement


def _view(tree: _Arrays, pos: int, first: int, leaves: int, outer: bool = True) -> Cotree:
    """The view of node ``pos``; ``outer=False`` skips its complement."""
    kind = tree.kinds[pos]
    cls = Complement if outer and kind & COMPLEMENTED else Union if kind & UNION else Leaf
    node = object.__new__(cls)
    node._tree, node._pos, node._first, node._leaves = tree, pos, first, leaves
    return node


def _from_arrays(kinds: bytearray, labels: array) -> Cotree:
    return _view(_Arrays(kinds, labels), len(kinds) - 1, 0, len(labels))


def _leaf_counts(kinds: bytearray) -> array:
    """Leaf count of every node's subtree, in post-order. A union's right
    child ends just before it and its left child just before that."""
    sizes = array("i", [1]) * len(kinds)
    for pos, kind in enumerate(kinds):
        if kind & UNION:
            right = sizes[pos - 1]
            sizes[pos] = right + sizes[pos - 2 * right]
    return sizes


def flat(t: Cotree) -> tuple[bytearray, array]:
    """The ``kinds`` and ``labels`` arrays of ``t``'s subtree: the tree's own
    arrays when ``t`` is its root, else copies, so a caller that needs both
    the labels and the kinds of a subtree calls it once. Callers must not
    modify them.
    """
    tree, pos, leaves = t._tree, t._pos, t._leaves
    kinds = tree.kinds
    top = kinds[pos] if isinstance(t, Complement) else kinds[pos] & ~COMPLEMENTED
    if pos == len(kinds) - 1 and kinds[pos] == top:
        return kinds, tree.labels
    kinds = kinds[pos - 2 * leaves + 2 : pos + 1]
    kinds[-1] = top
    return kinds, tree.labels[t._first : t._first + leaves]


def leaf_count(t: Cotree) -> int:
    return t._leaves


def union_node(left: Cotree, right: Cotree) -> Union:
    (kinds1, labels1), (kinds2, labels2) = flat(left), flat(right)
    return _from_arrays(kinds1 + kinds2 + bytes((UNION,)), labels1 + labels2)


def complement_node(child: Cotree) -> Cotree:
    """Complement wrapper; collapses a double complement."""
    if isinstance(child, Complement):
        return child.child
    kinds, labels = flat(child)
    return _from_arrays(kinds[:-1] + bytes((kinds[-1] | COMPLEMENTED,)), labels)


def iter_nodes(t: Cotree) -> Iterator[Cotree]:
    """All nodes in post-order (children before parents)."""
    tree, end, leaf = t._tree, t._pos, t._first
    sizes = tree.sizes
    for pos in range(end - 2 * t._leaves + 2, end + 1):
        kind = tree.kinds[pos]
        leaf += not kind & UNION  # leaves up to and including this subtree
        first = leaf - sizes[pos]
        yield _view(tree, pos, first, sizes[pos], False)
        if kind & COMPLEMENTED and (pos < end or isinstance(t, Complement)):
            yield _view(tree, pos, first, sizes[pos])


def node_count(t: Cotree) -> int:
    kinds, _ = flat(t)
    complements = kinds.count(LEAF | COMPLEMENTED) + kinds.count(UNION | COMPLEMENTED)
    return len(kinds) + complements


def leaf_labels(t: Cotree) -> list[int]:
    """Leaf vertex ids in left-to-right order."""
    return t._tree.labels[t._first : t._first + t._leaves].tolist()


def root_components(t: Cotree) -> list[Cotree]:
    """Subtrees under the root's union chain, left to right.

    For a cotree from ``build_cotree`` these are the connected components in
    ascending order of their smallest vertex; the leaves among them are the
    isolated vertices.
    """
    out, stack = [], [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Union):
            stack += (node.right, node.left)
        else:
            out.append(node)
    return out


def flat_checked(t: Cotree, n: int) -> tuple[bytearray, array]:
    """``flat(t)``, once its leaf labels are checked: ``ValueError`` when
    they repeat or fall outside ``range(n)``, a repeat first. A pass builds
    one set over the k labels, O(k). A pass over all of a tree's labels is
    recorded on the tree, and a later call on the tree or on any subtree
    against the same ``n`` makes none, as their labels pass too; a subtree
    of a tree with no such record is judged by its own labels.
    """
    kinds, labels = flat(t)
    tree = t._tree
    if tree.labels_below != n:
        if len(set(labels)) < len(labels):
            raise ValueError("cotree leaf labels repeat")
        if min(labels) < 0 or max(labels) >= n:
            raise ValueError(f"cotree leaf labels must lie in 0 .. {n - 1}")
        if len(labels) == len(tree.labels):
            tree.labels_below = n
    return kinds, labels


def _joins(t: Cotree) -> Iterator[tuple[list[int], list[int]]]:
    """The leaf labels of the two sides of each union node with an odd
    number of complement nodes on or above it, after ``flat_checked``.

    Two leaves are adjacent exactly when an odd number of complement nodes
    lie on or above their lowest common union node, so every leaf of one
    side is adjacent to every leaf of the other, and these pairs are all the
    edges of the graph ``t`` realizes, each once. A subtree's leaves are a
    contiguous slice of ``leaf_labels(t)``, so each side is one slice.
    """
    kinds, labels = flat_checked(t, t.leaves)
    labels = labels.tolist()
    sizes = _leaf_counts(kinds)
    # (node, index of its first leaf in labels, complement parity above it)
    stack = [(len(kinds) - 1, 0, 0)]
    while stack:
        pos, start, odd = stack.pop()
        if kinds[pos] & UNION:
            odd ^= kinds[pos] >> 1  # a complement on the union node sits above it
            right = sizes[pos - 1]
            mid = start + sizes[pos] - right
            if odd:
                yield labels[start:mid], labels[mid : mid + right]
            stack += ((pos - 2 * right, start, odd), (pos - 1, mid, odd))


def neighbour_rows(t: Cotree) -> list[list[int]]:
    """The neighbours of each vertex of the graph that ``t`` realizes, as
    row ``v`` of the result for the leaf labelled ``v``, unsorted. The labels
    are checked first with ``flat_checked``.

    Each pair of sides from ``_joins`` extends the rows of its two slices in
    bulk; the cost is O(n + m).
    """
    rows: list[list[int]] = [[] for _ in range(t.leaves)]
    for left_part, right_part in _joins(t):
        for u in left_part:
            rows[u] += right_part
        for v in right_part:
            rows[v] += left_part
    return rows


def realises(t: Cotree, g: Graph) -> str | None:
    """``None`` when ``t`` realizes ``g``, else a reason that reads on its
    own: the vertex counts, an edge of ``t`` that ``g`` lacks, or the two
    edge counts.

    Every pair that the sides of a join from ``_joins`` make must be an edge
    of ``g``: each vertex on the smaller side must have the whole larger
    side among its neighbours, a subset test in C. The joins hold each edge
    of ``t`` once, so ``t``'s edges are then exactly ``g``'s when the join
    sizes sum to ``g``'s edge count. O(n + m) in all, and only one join's
    sides are held at a time. The labels are checked with ``flat_checked``.
    """
    if t.leaves != g.n:
        return f"the cotree has {t.leaves} leaves, the graph {g.n} vertices"
    edges = 0
    for sides in _joins(t):
        small, large = sorted(sides, key=len)
        for u in small:
            if not g.adj[u].issuperset(large):
                w = min(set(large) - g.adj[u])
                return f"the graph lacks the cotree's edge {min(u, w)} {max(u, w)}"
        edges += len(small) * len(large)
    m = sum(map(len, g.adj)) // 2
    return None if edges == m else f"the cotree has {edges} edges, the graph {m}"


def realize(t: Cotree) -> Graph:
    """Graph described by the cotree: ``neighbour_rows(t)``, one frozenset
    per row.

    A leaf is a single vertex, a union node the disjoint union of its
    children, a complement node the graph complement of its child. Leaf
    labels must form exactly ``0 .. n-1``; vertex ``v`` of the result is the
    leaf labelled ``v``.
    """
    return Graph._unchecked(t._leaves, tuple(map(frozenset, neighbour_rows(t))))


def build_cotree(g: Graph) -> Cotree:
    """Decompose a graph into a normalized cotree by twin reduction.

    Every cograph with two or more vertices has a pair of twins: false twins
    share their open neighbourhood and merge under a union node, true twins
    share their closed neighbourhood and merge under a join (the complement
    of a union). Merging one twin into the other leaves a cograph, so the graph
    is a cograph exactly when repeated merges leave one vertex.

    The result is canonical, the tree the component/co-component
    decomposition gives: a single vertex is a leaf; a disconnected graph is
    the left-deep union chain of its components, in ascending order of
    smallest vertex id; a connected graph with two or more vertices is the
    complement of the cotree of its complement graph.

    Every live vertex stands for the module merged into it and carries the
    sum of its members' random codes, so a neighbourhood's code sum never
    changes when two of its members merge. Twin candidates therefore come
    out of hash buckets, and each is checked exactly before it merges: a
    collision costs time, never correctness. A merge deletes the absorbed
    vertex, so the current graph is the one ``g.adj`` induces on the live
    vertices, and ``g.adj`` is read in place. Codes are positive, so a live
    neighbourhood inside another with the same code sum equals it: a
    bucket's holder ``a`` and another member ``b`` are false twins when
    ``adj[b] - adj[a]`` holds no live vertex, and true twins when its live
    part is ``{a}``. A check costs O(degree of b in g), and b is absorbed
    unless the pair collided; a merge costs O(1). So the reduction takes
    O(n + m) expected time; sorting each node's children adds O(n log n).

    A graph is rejected when no twins are left among two or more live
    vertices. Those vertices induce a graph with no twins, which contains an
    induced 4-vertex path; ``_middle_edge_p4`` finds one, and
    ``NotCographError.witness`` holds it in original ids.
    """
    n = g.n
    if n == 0:
        raise EmptyGraphError("cannot build a cotree for the empty graph")
    rng = random.Random(_CODE_SEED)
    # At most n codes below 2**(62 - n.bit_length()) sum to less than 2**62,
    # so every code sum stays on sum()'s fast path for machine integers.
    code = [rng.getrandbits(62 - n.bit_length()) | 1 for _ in range(n)]
    adj = g.adj
    dead: set[int] = set()
    # Code sum over the live neighbours; a true-twin key adds the own code.
    open_sum = [sum(map(code.__getitem__, s)) for s in adj]
    buckets: tuple[dict[int, list[int]], dict[int, list[int]]] = ({}, {})
    for v in range(n):
        buckets[_FALSE].setdefault(open_sum[v], []).append(v)
        buckets[_TRUE].setdefault(open_sum[v] + code[v], []).append(v)
    todo = [
        (kind, k)
        for kind in (_FALSE, _TRUE)
        for k, vs in buckets[kind].items()
        if len(vs) > 1
    ]
    # Module node n + i puts the subtrees modules[i][1] under one node of
    # kind modules[i][0]; top[v] is the subtree of live vertex v's module.
    modules: list[tuple[int, list[int]]] = []
    top = list(range(n))

    def key(kind: int, v: int) -> int:
        return open_sum[v] + code[v] if kind == _TRUE else open_sum[v]

    def twins(kind: int, a: int, b: int) -> bool:
        extra = adj[b] - adj[a] - dead
        return extra == {a} if kind == _TRUE else not extra

    while todo:
        kind, k = todo.pop()
        # Entries go stale when their vertex is absorbed or its key changes.
        members = [v for v in buckets[kind][k] if v not in dead and key(kind, v) == k]
        kept: list[int] = []
        while len(members) > 1:
            a, rest, absorbed = members[0], [], []
            for b in members[1:]:
                if not twins(kind, a, b):
                    rest.append(b)  # a hash collision
                    continue
                # Absorb b into a: no other vertex's key changes, and a's
                # key of this kind stays.
                dead.add(b)
                if kind == _TRUE:
                    open_sum[a] -= code[b]
                code[a] += code[b]
                absorbed.append(top[b])
            if absorbed:
                # b never heads a module of this kind: a vertex that does
                # held it in this bucket, so every holder before it failed
                # the twin test with it, and merging twins of one kind keeps
                # such pairs non-twins. So modules never nest in one of
                # their own kind, and a's module grows in place.
                x = top[a] - n
                if x >= 0 and modules[x][0] == kind:
                    modules[x][1].extend(absorbed)
                else:
                    modules.append((kind, [top[a], *absorbed]))
                    top[a] = n + len(modules) - 1
                other = 1 - kind
                k_other = key(other, a)
                bucket = buckets[other].setdefault(k_other, [])
                bucket.append(a)
                if len(bucket) > 1:
                    todo.append((other, k_other))
            kept.append(a)
            members = rest
        buckets[kind][k] = kept + members

    remaining = [v for v in range(n) if v not in dead]
    if len(remaining) > 1:
        # Trimmed in place, which keeps each copy's iteration order and with
        # it the witness that the search returns.
        induced = {v: set(adj[v]) for v in remaining}
        for v, nbrs in induced.items():
            nbrs -= adj[v] & dead
        raise NotCographError(_middle_edge_p4(induced, remaining))
    return _canonical_tree(n, modules, top[remaining[0]])


def _middle_edge_p4(adj: dict[int, set[int]], vertices: list[int]) -> tuple[int, int, int, int]:
    """An induced path a-b-c-d of the twin-free graph ``adj`` on ``vertices``.

    For an edge b-c, a can be any vertex of A = N(b) - N[c] and d any of
    D = N(c) - N[b]; a path is induced when d is not adjacent to a. Every
    induced 4-vertex path has such a middle edge, and a twin-free graph on
    two or more vertices is no cograph, so it has one: the search is
    complete.
    """
    for b in vertices:
        for c in adj[b]:
            a_side = adj[b] - adj[c] - {c}
            if a_side:
                d_side = adj[c] - adj[b] - {b}
                for a in a_side:
                    if not d_side <= adj[a]:
                        return a, b, c, min(d_side - adj[a])
    raise RuntimeError("a twin-free graph with two or more vertices has an induced P4")


def _canonical_tree(n: int, modules: list[tuple[int, list[int]]], root: int) -> Cotree:
    """Write a module tree as the canonical cotree.

    Node ids below ``n`` are leaves; id ``n + i`` is ``modules[i]``, whose
    children are of other kinds. Each module's children are listed in
    ascending order of their smallest leaf: left-deep for a union, and for a
    join the complement of the union of its children's complements, where a
    complemented leaf stays the leaf.
    """
    order: list[int] = []  # module nodes, parents first
    stack = [root]
    while stack:
        x = stack.pop()
        if x >= n:
            order.append(x)
            stack += modules[x - n][1]

    # Concatenating a module's children copies each subtree once per module
    # above it. Each join module of s vertices has at least s - 1 edges and
    # each union module is no larger than the join above it, so the copies
    # cost O(n + m) in all.
    smallest = list(range(n)) + [0] * len(modules)
    built: dict[int, tuple[bytearray, array]] = {}
    for x in reversed(order):
        kind, kids = modules[x - n]
        kids.sort(key=smallest.__getitem__)
        smallest[x] = smallest[kids[0]]
        flip = COMPLEMENTED if kind == _TRUE else 0
        kinds, labels = bytearray(), array("i")
        for i, y in enumerate(kids):
            if y < n:
                kinds.append(LEAF)
                labels.append(y)
            else:
                more_kinds, more_labels = built.pop(y)
                kinds += more_kinds
                labels += more_labels
                kinds[-1] ^= flip
            if i:
                kinds.append(UNION)
        kinds[-1] ^= flip
        built[x] = kinds, labels
    return Leaf(root) if root < n else _from_arrays(*built[root])


def random_cotree(n: int, seed: int) -> Cotree:
    """Deterministic random normalized cotree with ``n`` leaves.

    The shape is drawn by splitting the leaf count uniformly at every union
    node; each union node is independently wrapped in a complement with
    probability one half. Leaves are labelled 0 .. n-1 left to right.

    A split is drawn as ``Random.randint(1, size - 1)`` draws it on CPython
    3.10 to 3.13 (``randrange`` through ``_randbelow_with_getrandbits``), but
    inline: ``getrandbits(k)`` for the bit length ``k`` of ``size - 1``,
    redrawn while it is not below ``size - 1``, plus one. So every seed
    gives the same tree as the ``randint`` call did, at about half the cost.
    """
    if not 1 <= n <= LABEL_LIMIT:
        raise ValueError(f"a cotree has 1 .. {LABEL_LIMIT} leaves, not {n}")
    rng = random.Random(seed)
    getrandbits, draw = rng.getrandbits, rng.random
    kinds = bytearray()
    add = kinds.append
    union, join = -UNION, -(UNION | COMPLEMENTED)
    # A positive item is a subtree to draw with that many leaves, a negative
    # one the kind of the union that closes a drawn pair, and the 0 at the
    # bottom ends the draw. Each node draws its split and its complement,
    # then its left subtree comes first; after each leaf, the unions that it
    # completes close. A union of two leaves makes the same draws, its split
    # redrawn until ``getrandbits(1)`` is 0, and appends its three kinds.
    todo = [0, n]
    push, pop = todo.append, todo.pop
    size = pop()
    while size:
        while size > 2:
            m = size - 1
            k = m.bit_length()
            r = getrandbits(k)
            while r >= m:
                r = getrandbits(k)
            push(join if draw() < 0.5 else union)
            push(m - r)
            size = r + 1
        if size == 2:
            while getrandbits(1):
                pass
            kinds += _JOINED_PAIR if draw() < 0.5 else _PAIR
        else:
            add(LEAF)
        size = pop()
        while size < 0:
            add(-size)
            size = pop()
    return _from_arrays(kinds, array("i", list(range(n))))


def fold_leaves(kinds: bytearray) -> bytearray:
    """``kinds`` with each union of two leaves and then each union with a
    leaf on its right as one byte, ``LEAF_PAIR`` or ``LEAF_RIGHT`` with the
    union's ``COMPLEMENTED`` flag. In post-order a union's right child ends
    just before it, and a leaf right child's sibling just before that. A
    complemented leaf, which only a hand-built tree has, keeps its own byte
    and never folds into its union.
    """
    for pattern, code in _LEAF_FOLDS:
        kinds = kinds.replace(pattern, code)
    return kinds


def format_cotree(t: Cotree) -> str:
    """S-expression serialization: ``L<id>`` | ``(U <t> <t>)`` | ``(C <t>)``.

    The kinds, folded by ``fold_leaves``, are read right to left, where a
    union comes before its right subtree and that before its left one, and
    each folded kind appends one constant piece of the reversed text: a
    union's closing ``)`` or ``))``, a leaf, ``L%d`` or ``(C L%d)``, the
    whole text of a union of two leaves, or the right leaf and closing of a
    union with a leaf on its right. A union's opening ``(U`` or ``(C (U``
    follows once its left subtree is finished, which ``stack`` tracks: the
    open unions' openers, each with a ``None`` above it while its right
    subtree is still to come. Every piece but a closing brings the space
    before it, so the pieces are joined in text order with no separator,
    the first space is dropped, and one ``%`` fills in every label.
    """
    kinds, labels = flat(t)
    parts: list[str] = []
    add = parts.append
    stack: list[str | None] = [None]  # popped when the whole tree is finished
    pop = stack.pop
    for kind in reversed(fold_leaves(kinds)):
        add(_PIECES[kind])
        if opened := _PUSHES[kind]:
            stack += opened
        else:
            # The piece completes a subtree. While that is a left subtree,
            # its union is complete too and the union's opener follows; a
            # None means a right subtree, whose sibling comes next.
            while opener := pop():
                add(opener)
    parts.reverse()
    return "".join(parts)[1:] % tuple(labels)


def parse_cotree(text: str) -> Cotree:
    """Parse the s-expression grammar; the result is normalized.

    One pass over the tokens writes the kinds in post-order: a leaf or a
    closing union appends one, a closing complement flips the flag of the
    last finished subtree. ``done`` counts the finished subtrees not yet
    under a closed operator, and ``stack`` holds one int per open operator:
    ``done`` as it was at a ``(U`` and its bit inverse ``~done`` at a
    ``(C``. So a ``)`` pops its operator, by the sign, and how many subtrees
    it received. The text is read in slices of about ``_PARSE_SLICE``
    characters, each cut just before a ``)``, so no token is cut and the
    token list of the whole text never exists.

    Each slice reaches that loop as op bytes: ``)``, ``u`` for ``(U``,
    ``c`` for ``(C``, ``L`` for a leaf, or a folded subtree's byte of
    ``_FOLDED_KINDS``. ``_bulk_ops`` makes them with bytes operations; only
    a slice that it refuses, for an error or for a spelling it does not
    take, such as ``( U`` or a non-ASCII space, is read by ``_token_ops``,
    which raises a bad token's message when the loop asks for that token's
    op. The loop raises every other message. It does not test on every op
    that the text holds one term: outside all operators ``done`` only
    grows, so that rule was broken before an error, or by the end of the
    text, exactly when this outer ``done`` exceeds 1. The outermost open
    operator recorded it, and a failing ``)`` pushes its operator back to
    keep that record.
    """
    kinds = bytearray()
    labels = array("i")
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    done = 0
    try:
        for piece in _slices(text):
            ops = _bulk_ops(piece, labels)
            for op in _token_ops(piece, labels) if ops is None else ops:
                if op == _CLOSE:
                    if not stack:
                        raise ValueError("unbalanced ')'")
                    opened = pop()
                    if opened >= 0:
                        if done - opened != 2:
                            push(opened)
                            raise ValueError("U takes exactly two subtrees")
                        kinds.append(UNION)
                        done -= 1
                    elif done + opened:  # done - ~opened != 1
                        push(opened)
                        raise ValueError("C takes exactly one subtree")
                    else:
                        kinds[-1] ^= COMPLEMENTED
                elif op == _OPEN_U:
                    push(done)
                elif op == _OPEN_C:
                    push(~done)
                else:
                    kinds += _FOLDED_KINDS[op]
                    done += 1
        # With no operator open, done is 0 only for a text with no token,
        # and above 1 for more than one term, which the handler names.
        if stack or done != 1:
            raise ValueError("unbalanced '('" if stack else "empty cotree text")
    except ValueError:
        if (max(stack[0], ~stack[0]) if stack else done) > 1:
            raise ValueError("multiple top-level cotree terms") from None
        raise
    return _from_arrays(kinds, labels)


def _slices(text: str) -> Iterator[str]:
    """``text`` in slices of about ``_PARSE_SLICE`` characters, each but
    the first starting with a ``)``."""
    start = 0
    while start < len(text):
        end = text.find(")", start + _PARSE_SLICE)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end


def _bulk_ops(piece: str, labels: array) -> bytes | None:
    """The op bytes of one slice for ``parse_cotree``'s loop, its labels
    appended to ``labels``; or ``None``, with ``labels`` as it was, when the
    slice fails a check.

    A slice passes when it is ASCII and, in ``_CLASSES``, has no byte
    outside the grammar, a ``U`` or ``C`` after every ``(`` and a ``(``
    before each, a digit after every ``L``, no ``L`` right after an
    operator or a digit, and as many digit runs as ``L``s, so that every
    run follows an ``L``. Its tokens are then ``(U``, ``(C``, ``)`` and
    ``L`` with digits, as ``_token_ops`` would split them; the labels are
    its digit runs, converted by one ``map(int, ...)``, and with the digits
    and spaces deleted each token but ``(U`` and ``(C`` is one byte.
    ``_FOLDS`` folds those two into one byte each and, first, ``(U L L)``
    into one byte that appends its three kinds. A ``(U L L)`` that a slice
    boundary cuts is not folded, and its tokens take one step each.
    """
    if not piece.isascii():
        return None
    raw = piece.encode("ascii")
    classes = raw.translate(_CLASSES)
    openers = classes.count(b"(")
    leaves = classes.count(b"L")
    if (
        b"!" in classes
        or classes.count(b"(U") != openers
        or classes.count(b"U") != openers
        or classes.count(b"L0") != leaves
        or any(pair in classes for pair in _GLUED)
    ):
        return None
    runs = raw.translate(_DIGIT_RUNS).split()
    if len(runs) != leaves:
        return None
    count = len(labels)
    try:
        labels.extend(map(int, runs))
    except (OverflowError, ValueError):
        del labels[count:]
        return None
    ops = raw.translate(None, _DIGITS + _SPACES)
    for pattern, op in _FOLDS:
        ops = ops.replace(pattern, op)
    return ops


def _token_ops(piece: str, labels: array) -> Iterator[int]:
    """The op bytes of one slice, token by token, each leaf's label
    appended to ``labels`` as its op is taken; a bad token raises its
    message when its op is asked for. An opener is one token, ``(U`` or
    ``(C``, unless space follows the ``(``; then the operator is the next
    token of the same slice, since the next slice starts with a ``)``,
    which is no operator either."""
    tokens = iter(piece.replace("(", " (").replace(")", " ) ").split())
    for tok in tokens:
        if tok == ")":
            yield _CLOSE
        elif tok[0] == "(":
            if tok == "(":
                tok += next(tokens, "")
            if tok == "(U":
                yield _OPEN_U
            elif tok == "(C":
                yield _OPEN_C
            else:
                raise ValueError("expected U or C after '('")
        elif tok == "U" or tok == "C":
            raise ValueError(f"operator {tok!r} outside parentheses")
        else:
            digits = tok[1:]
            if tok[0] != "L" or not (digits.isascii() and digits.isdecimal()):
                raise ValueError(f"bad token {tok!r}")
            try:
                labels.append(int(digits))
            except (OverflowError, ValueError):  # ValueError: int()'s digit limit
                raise ValueError(f"leaf label {tok!r} out of range") from None
            yield _LEAF_OP
