import copy
import itertools
import pickle

import pytest

from hopftrees.hopf_trees import cuts_of
from hopftrees.trees import (
    BBAParseError,
    DOT,
    Forest,
    OrderedForest,
    PDOT,
    PlanarTree,
    ResourceLimitError,
    RootedTree,
    T_comp,
    bba_decode,
    canonicalize,
    catalan,
    degree_ceiling,
    embedding_count,
    enumerate_planar,
    enumerate_rooted,
    ladder,
    multiset_orders,
    planar_ladder,
    planar_realizations,
    rooted_count_recurrence,
    sym_order,
    t_lambda,
    to_planar,
)

from oracles import child_factorial_product, planar_realizations_by_permutations

CHERRY = RootedTree([DOT, DOT])


def test_decode_examples():
    assert bba_decode("") == PDOT
    t = bba_decode("<><<>>")
    assert [c.bba for c in t.children] == ["", "<>"]


def test_decode_errors_carry_offsets():
    with pytest.raises(BBAParseError) as err:
        bba_decode("<>>")
    assert err.value.offset == 2
    with pytest.raises(BBAParseError) as err:
        bba_decode("<<")
    assert err.value.offset == 2
    with pytest.raises(BBAParseError) as err:
        bba_decode("<a>")
    assert err.value.offset == 1


def test_encode_examples():
    assert PDOT.bba == ""
    assert planar_ladder(3).bba == "<<>>"
    three_leaves = PlanarTree([PDOT, PDOT, PDOT])
    assert bba_decode(three_leaves.bba) == three_leaves
    assert three_leaves.bba == "<><><>"


@pytest.mark.parametrize("n", range(9))
def test_round_trip_exhaustive(n):
    for t in enumerate_planar(n):
        assert bba_decode(t.bba) == t
        assert len(t.bba) == 2 * (t.size - 1)


def test_canonicalize():
    assert canonicalize(bba_decode("<><<>>")) == canonicalize(bba_decode("<<>><>"))
    assert canonicalize(PDOT) == DOT
    assert canonicalize(bba_decode("<><>")) == CHERRY


def test_canonicalize_idempotent_through_realizations():
    for n in range(6):
        for t in enumerate_rooted(n):
            assert canonicalize(to_planar(t)) == t
            for T in planar_realizations(t):
                assert canonicalize(T) == t


def test_sym_order_examples():
    assert sym_order(DOT) == 1
    assert sym_order(CHERRY) == 2
    assert sym_order(t_lambda((1, 1, 2))) == 2
    assert sym_order(t_lambda((1, 1, 1))) == 6
    assert sym_order(ladder(5)) == 1


def _bba_strings(n):
    """Every balanced bracket arrangement of weight n, in lexicographic order,
    grown as strings: an oracle independent of enumerate_planar's trees."""
    out = []

    def grow(prefix, opened, closed):
        if len(prefix) == 2 * n:
            out.append(prefix)
            return
        if opened < n:
            grow(prefix + "<", opened + 1, closed)
        if closed < opened:
            grow(prefix + ">", opened, closed + 1)

    grow("", 0, 0)
    return out


def test_enumerate_planar_counts_and_order():
    for n in range(10):
        trees = enumerate_planar(n)
        assert len(trees) == catalan(n)
        assert len(set(trees)) == len(trees)
        assert trees == tuple(bba_decode(s) for s in _bba_strings(n))
        strings = [t.bba for t in trees]
        assert strings == sorted(strings)
    assert len(enumerate_planar(3)) == 5
    assert len(enumerate_planar(6)) == 132


def test_enumerate_rooted_counts_against_recurrence():
    expected = [1, 1, 2, 4, 9, 20, 48, 115]
    for n, want in enumerate(expected):
        assert len(enumerate_rooted(n)) == want
        assert rooted_count_recurrence(n + 1) == want
    # canonicalise and dedupe every planar tree: an oracle independent of
    # the multiset construction
    for n in range(10):
        seen = {canonicalize(T) for T in enumerate_planar(n)}
        assert enumerate_rooted(n) == tuple(sorted(seen, key=lambda t: t.key))
    for n in range(11):
        trees = enumerate_rooted(n)
        assert len(trees) == len(set(trees)) == rooted_count_recurrence(n + 1)


def test_enumerate_rooted_degree_two():
    assert list(enumerate_rooted(2)) == sorted(
        [ladder(3), CHERRY], key=lambda t: t.key
    )


def test_embedding_count_examples():
    assert embedding_count(DOT) == 1
    assert embedding_count(CHERRY) == 1
    assert embedding_count(RootedTree([DOT, ladder(2)])) == 2
    assert {T.bba for T in planar_realizations(RootedTree([DOT, ladder(2)]))} == {
        "<><<>>",
        "<<>><>",
    }


@pytest.mark.parametrize("n", range(9))
def test_embedding_count_vs_preimages_and_symmetry(n):
    # embedding_count and the stored bba come from the children; the
    # realizations and to_planar build each tree's planar forms afresh
    for t in enumerate_rooted(n):
        realizations = planar_realizations(t)
        assert len(realizations) == embedding_count(t)
        assert len(set(realizations)) == len(realizations)
        assert embedding_count(t) * sym_order(t) == child_factorial_product(t)
        assert t.bba == to_planar(t).bba


def test_planar_preimage_partition():
    # realizations of distinct rooted trees partition the planar trees
    for n in range(7):
        seen = []
        for t in enumerate_rooted(n):
            seen.extend(planar_realizations(t))
        assert sorted(T.bba for T in seen) == sorted(T.bba for T in enumerate_planar(n))


@pytest.mark.parametrize(
    "items", [(), (1,), (2, 2), (1, 2, 3), (3, 1, 1, 2), (2, 2, 1, 1, 1), (1,) * 5]
)
def test_multiset_orders_are_the_sorted_distinct_permutations(items):
    want = sorted(set(itertools.permutations(items)))
    assert list(multiset_orders(items)) == want
    assert list(multiset_orders(reversed(items))) == want


def test_realizations_match_permutation_walk():
    # the same planar trees in the same order, exhaustively to degree 8
    for n in range(9):
        for t in enumerate_rooted(n):
            assert planar_realizations(t) == planar_realizations_by_permutations(t)


def test_bush_has_one_realization_under_the_default_ceiling(monkeypatch):
    monkeypatch.delenv("HOPFTREES_MAX_DEGREE", raising=False)
    bush = t_lambda([1] * degree_ceiling())
    assert planar_realizations(bush) == (PlanarTree([PDOT] * degree_ceiling()),)


def test_ladder_families():
    assert ladder(1) == DOT
    assert t_lambda((1, 1)) == CHERRY
    assert T_comp((2, 1)) == bba_decode("<<>><>")
    assert t_lambda(()) == DOT
    assert to_planar(ladder(4)).bba == "<<<>>>"


def test_forest_ordering_and_units():
    f = Forest([CHERRY, DOT, ladder(2)])
    assert f.weight == 6
    assert Forest([DOT, CHERRY, ladder(2)]) == f
    assert Forest().weight == 0
    of1 = OrderedForest([PDOT, planar_ladder(2)])
    of2 = OrderedForest([planar_ladder(2), PDOT])
    assert of1 != of2
    assert of1.reverse() == of2


def test_resource_limit():
    n = degree_ceiling() + 1
    for enumerate_trees, kind in (
        (enumerate_planar, "planar"),
        (enumerate_rooted, "rooted"),
    ):
        with pytest.raises(ResourceLimitError) as err:
            enumerate_trees(n)
        assert str(err.value) == (
            f"{kind} enumeration at weight {n} exceeds ceiling {degree_ceiling()}"
        )
        with pytest.raises(ValueError):
            enumerate_trees(-1)


def test_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("HOPFTREES_MAX_DEGREE", "3")
    assert degree_ceiling() == 3
    for junk in ("junk", "-1"):
        monkeypatch.setenv("HOPFTREES_MAX_DEGREE", junk)
        with pytest.raises(ResourceLimitError, match="HOPFTREES_MAX_DEGREE"):
            degree_ceiling()
    monkeypatch.delenv("HOPFTREES_MAX_DEGREE")
    assert degree_ceiling() == 10


def test_equal_trees_are_one_object():
    # planar: decoded, enumerated and built by hand
    T = bba_decode("<><<>>")
    assert T is next(t for t in enumerate_planar(3) if t.bba == "<><<>>")
    assert T is PlanarTree([PDOT, PlanarTree([PDOT])])
    # rooted: canonicalised, enumerated and built with the children reordered
    t = canonicalize(T)
    assert t is next(u for u in enumerate_rooted(3) if u.key == t.key)
    assert t is RootedTree([ladder(2), DOT]) is RootedTree([DOT, ladder(2)])
    assert RootedTree([ladder(2), DOT]).children == (DOT, ladder(2))
    # the root part of a cut is the tree built directly
    cut = next(c for c in cuts_of(ladder(3)) if c.weight == 1 and c.fallen.weight == 1)
    assert cut.root_part is ladder(2) and cut.fallen is Forest([DOT])
    assert Forest([CHERRY, DOT]) is Forest([DOT, CHERRY])
    assert OrderedForest([PDOT, T]) is OrderedForest((PDOT, T))
    assert OrderedForest([PDOT, T]) is not OrderedForest([T, PDOT])


@pytest.mark.parametrize(
    "value, attr",
    [
        (bba_decode("<<>>"), "bba"),
        (CHERRY, "children"),
        (Forest([CHERRY]), "trees"),
        (OrderedForest([PDOT]), "weight"),
    ],
)
def test_trees_are_immutable_and_copy_to_themselves(value, attr):
    before = getattr(value, attr)
    with pytest.raises(AttributeError):
        setattr(value, attr, before)
    with pytest.raises(AttributeError):
        delattr(value, attr)
    assert getattr(value, attr) is before
    copies = (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)))
    assert all(c is value for c in copies)
