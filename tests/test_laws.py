"""``solve_cotree`` at scale: laws, closed forms and pinned tie choices.

Above 20 vertices no oracle checks that an optimum is minimal. The laws of
``crosscheck_random.broken_laws`` hold for any minimum-weight problem and
read nothing of the dynamic program, and the large trees here give tables
of more than 60,000 entries, so a fault that needs a large table shows too.
The closed forms pin whole answers at 2^14 to 2^16 vertices. Neither can
see which of several optimal sets comes back, so ``DIGESTS`` pins that on
seeded trees: a change that means to change a tie choice updates them and
says so.
"""

import hashlib
import importlib.util
import random
from pathlib import Path

import pytest

from ftmd import parse_cotree, random_cotree, realize, solve_cotree
from strategies import threshold_chain

path = Path(__file__).resolve().parent.parent / "scripts" / "crosscheck_random.py"
spec = importlib.util.spec_from_file_location("crosscheck_random", path)
crosscheck = importlib.util.module_from_spec(spec)
spec.loader.exec_module(crosscheck)


def independent(labels):
    return crosscheck.union_chain(f"L{v}" for v in labels)


def join(a, b):
    """Cotree text of the join of two cotree texts: every vertex of one
    meets every vertex of the other."""
    return f"(C (U (C {a}) (C {b})))"


def test_text_builders_give_the_canonical_trees():
    for n in range(1, 12):
        assert parse_cotree(crosscheck.threshold_chain_text(n)) == threshold_chain(n)
    assert realize(parse_cotree(crosscheck.matching_text(6))).edges() == [(0, 1), (2, 3), (4, 5)]
    star = realize(parse_cotree(join("L0", independent(range(1, 4)))))
    assert star.edges() == [(0, 1), (0, 2), (0, 3)]


def test_laws_hold_on_small_random_trees():
    rng = random.Random(14)
    for trial in range(150):
        n = rng.randint(1, 2 ** rng.randint(1, 10))
        tree = random_cotree(n, rng.randrange(2**31))
        weights = [rng.randint(0, 9) for _ in range(n)]  # zero weights included
        assert crosscheck.broken_laws(tree, weights, rng) == [], (trial, n)


@pytest.mark.parametrize("leaves, seed", [(2**15, 0), (2**16, 1)])
def test_laws_hold_on_large_random_trees(leaves, seed):
    # One component of 2^15 leaves, and one of 52,349 among three.
    rng = random.Random(seed)
    weights = [rng.randint(0, 9) for _ in range(leaves)]
    assert crosscheck.broken_laws(random_cotree(leaves, seed), weights, rng) == []


@pytest.mark.parametrize(
    "text, chosen",
    [
        # A star's leaves are false twins, which only themselves separate.
        (join("L0", independent(range(1, 2**16))), range(1, 2**16)),
        (f"(C {independent(range(2**15))})", range(2**15)),
        (join(independent(range(2)), independent(range(2, 2**14))), range(2**14)),
        (join(independent(range(2**15)), independent(range(2**15, 2**16))), range(2**16)),
        (crosscheck.matching_text(64), range(64)),
        (crosscheck.matching_text(2**14), range(2**14)),
    ],
    ids=["star", "complete", "biclique-2", "biclique", "matching-64", "matching"],
)
def test_closed_forms_with_unit_weights(text, chosen):
    solution = solve_cotree(parse_cotree(text))
    assert solution.vertices == tuple(chosen)
    assert solution.weight == len(chosen)


# sha256 of the solution line, ``" ".join(map(str, vertices))``, on
# random_cotree(2**k, seed) with weights drawn from 0 .. 3.
DIGESTS = {
    (4, 0): "b06b2d2a333fc829502790fcd3a6eb1d107598f438fd86d96a79b98b0f685be7",
    (5, 0): "66eca2202255bb0ecc7291beb092ca79b90e91031f350726898b6493a2d870a9",
    (6, 0): "2e93d5c5b37cc6c2a4085f285bad05d284ed416f068d2cd32b49db1457840fc9",
    (7, 0): "35df5a9b0cd432567d54495f180dcf05806bcb826244bbecf9b335c5ac246945",
    (8, 0): "2e02d89ded6d0dcde8782aee68e350b636dfe8bcd274706dbd5e8e3f2d8b57fb",
    (9, 0): "297c265dd1c341e90fdfabc9356329bac1b95481881a4eaec41ac95dfe3a7e8e",
    (10, 0): "456027fd1a0554e11c600d32f96683b865e6129cf02c45601fdb23de1bd33e8a",
    (11, 0): "07e2eba947ea1dd90059f2484053d653052313af34cfa7110ff072a02d9cd6a2",
    (12, 0): "3dd57195d7c65a3d598ce0d1bcae5246449630647c2b83addbe152e7c2bb9bdf",
    (13, 0): "29367880657dd4c952c7eb925fdc0866091caca36fe3589e9cf1c769f304d7e3",
    (14, 0): "db7dc300f5be08631929679bfda588adc0986afaa90003f5482d027fe69571f3",
    (15, 0): "be3f4ec48d6e7b864a371e97a1f20e0e1af484d9eda49393f184f83d95dc8c52",
    (16, 0): "345f618da080ef2ca6d49b1646fa6dffa33cfcb6170e7b7accddc60a022ea4f1",
    (4, 1): "3ae5558a50557428c805755e135370ff2107dc3ceccc5d6a5aa2574008f07f2a",
    (5, 1): "ee205f69346656e7264f364176ab6bc121754798b922e1a61de2626e2762c4f6",
    (6, 1): "b7e55c6faa9b42aedab68e527535b25fad4a387846fe3f2fcf162b2ae1a722ae",
    (7, 1): "53bd5d9ace45595ed6ecfee9a6569466e69bdcb5d167feadb5b2c7c8c0da81e2",
    (8, 1): "01d35365128aabf84cd329faffa1e545e835cfab2b9cc2ba4b8131411a1d65f5",
    (9, 1): "be5f75668b75cfac94f12281732734222976e1980dcaae30d35f70478d2e9628",
    (10, 1): "1a65dab09d263563b826991027d16096003a526e39b523101b8d4dd28455dd42",
}


def solution_digest(k, seed):
    rng = random.Random(seed)
    weights = [rng.randint(0, 3) for _ in range(2**k)]
    vertices = solve_cotree(random_cotree(2**k, seed), weights).vertices
    return hashlib.sha256(" ".join(map(str, vertices)).encode()).hexdigest()


def test_tie_choices_are_pinned():
    assert {key: solution_digest(*key) for key in DIGESTS} == DIGESTS
