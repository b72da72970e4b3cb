import doctest

import pytest
from hypothesis import given, strategies as st

import akblocks.multipartition as mp_mod
from akblocks import (
    InputError,
    Multicharge,
    Node,
    add_node,
    addable_nodes,
    as_multipartition,
    as_partition,
    dominates,
    lex_cmp,
    multipartition_from_json,
    multipartition_to_json,
    multipartitions_of,
    node_above,
    nodes,
    partitions_of,
    removable_nodes,
    remove_node,
    residue,
    residue_multiset,
    size,
)


def test_doctests():
    failures, _ = doctest.testmod(mp_mod)
    assert failures == 0


def test_as_partition_strips_zeros():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    assert as_partition(()) == ()


def test_as_partition_rejects_bad_input():
    with pytest.raises(InputError):
        as_partition([1, 2])
    with pytest.raises(InputError):
        as_partition([2, -1])
    with pytest.raises(InputError):
        as_partition([2.5])
    with pytest.raises(InputError):
        as_partition([True, True])


def test_multicharge_validation():
    with pytest.raises(InputError):
        Multicharge(1, (0,))
    with pytest.raises(InputError):
        Multicharge(3, ())
    with pytest.raises(InputError):
        Multicharge(3, (True, 0))
    mc = Multicharge(3, (4, -1))
    assert mc.r == 2
    assert mc.kappa == (1, 2)


def test_multicharge_json_roundtrip():
    mc = Multicharge(4, (1, 0, 2))
    assert mc.to_json() == {"e": 4, "charge": [1, 0, 2]}


def test_nodes_and_counts():
    mp = ((2, 1), (1,))
    assert nodes(mp) == [
        Node(1, 1, 1),
        Node(1, 2, 1),
        Node(2, 1, 1),
        Node(1, 1, 2),
    ]
    assert removable_nodes(mp) == [Node(1, 2, 1), Node(2, 1, 1), Node(1, 1, 2)]
    # one more addable than removable per component
    assert len(addable_nodes(mp)) == len(removable_nodes(mp)) + 2


def test_add_remove_inverse():
    mp = ((2, 1), ())
    for nd in removable_nodes(mp):
        assert add_node(remove_node(mp, nd), nd) == mp
    for nd in addable_nodes(mp):
        assert remove_node(add_node(mp, nd), nd) == mp


def test_remove_rejects_non_removable():
    with pytest.raises(InputError):
        remove_node(((2, 2),), Node(1, 2, 1))


def test_residues_match_worked_example():
    mc = Multicharge(4, (1, 0, 2))
    lam = ((1, 1), (2,), (2, 1))
    assert residue_multiset(lam, mc) == (0, 0, 1, 1, 1, 2, 3)
    assert residue(Node(1, 1, 1), mc) == 1
    assert residue(Node(2, 1, 1), mc) == 0


def test_residue_multiset_detects_blocks():
    mc = Multicharge(4, (1, 0, 2))
    a = ((1, 1), (2,), (2, 1))
    b = ((1,), (2, 1), (1, 1, 1))
    assert residue_multiset(a, mc) == residue_multiset(b, mc)


def test_dominance_basics():
    assert dominates(((2,),), ((1, 1),))
    assert not dominates(((1, 1),), ((2,),))
    assert dominates(((2, 1),), ((2, 1),))
    # strictly finer split across components
    assert dominates(((2,), ()), ((1,), (1,)))


def test_dominance_needs_matching_shape():
    with pytest.raises(InputError):
        dominates(((2,),), ((1,),))
    with pytest.raises(InputError):
        dominates(((2,),), ((1,), (1,)))


def test_lex_cmp_total():
    a = ((2,), (1,))
    b = ((1, 1), (2,))
    assert lex_cmp(a, b) == 1
    assert lex_cmp(b, a) == -1
    assert lex_cmp(a, a) == 0


def test_node_above_is_component_then_row():
    assert node_above(Node(5, 1, 1), Node(1, 9, 2))
    assert node_above(Node(1, 1, 1), Node(2, 1, 1))
    assert not node_above(Node(1, 1, 1), Node(1, 5, 1))


def test_partitions_of_counts():
    # 1, 1, 2, 3, 5, 7, 11, 15, 22
    assert [len(list(partitions_of(n))) for n in range(9)] == [
        1, 1, 2, 3, 5, 7, 11, 15, 22,
    ]


def test_multipartitions_of_counts():
    assert len(list(multipartitions_of(3, 2))) == 10
    assert len(list(multipartitions_of(0, 3))) == 1
    for mp in multipartitions_of(4, 2):
        assert size(mp) == 4


def test_json_shapes():
    mp = ((2, 1), ())
    obj = multipartition_to_json(mp)
    assert obj == {"components": [[2, 1], []]}
    assert multipartition_from_json(obj) == mp
    assert multipartition_from_json([[2, 1], []]) == mp
    with pytest.raises(InputError):
        multipartition_from_json({"rows": []})


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=6))
def test_sorted_lists_make_partitions(parts):
    p = as_partition(sorted(parts, reverse=True))
    assert all(a >= b for a, b in zip(p, p[1:]))
    assert 0 not in p


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=5), max_size=4),
        min_size=1,
        max_size=3,
    )
)
def test_addable_exceeds_removable_by_level(rows):
    mp = as_multipartition([sorted(r, reverse=True) for r in rows])
    assert len(addable_nodes(mp)) - len(removable_nodes(mp)) == len(mp)


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=3))
def test_multipartition_sizes(n, r):
    seen = set()
    for mp in multipartitions_of(n, r):
        assert size(mp) == n and len(mp) == r
        seen.add(mp)
    assert len(seen) == len(list(multipartitions_of(n, r)))
