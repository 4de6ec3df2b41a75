import json
from itertools import product
from math import comb

import pytest

from sguq.indices import (
    MultiIndexSet,
    combination_coefficients,
    explicit_index_set,
    generate_index_set,
    index_set_from_json_dict,
    index_set_to_json_dict,
    is_downward_closed,
)


def brute_force_sum_set(dim, w):
    return sorted(i for i in product(range(1, w + 2), repeat=dim)
                  if sum(c - 1 for c in i) <= w)


def recursive_sum_set(dim, w):
    """The recursive generator generate_index_set used for "sum" sets, kept as oracle."""
    indices = []

    def _extend(prefix, remaining):
        if len(prefix) == dim - 1:
            for t in range(remaining + 1):
                indices.append(tuple(prefix) + (t + 1,))
            return
        for t in range(remaining + 1):
            _extend(prefix + (t + 1,), remaining - t)

    _extend((), w)
    indices.sort()
    return tuple(indices)


@pytest.mark.parametrize("dim", range(1, 9))
def test_sum_sets_match_the_recursive_generator(dim):
    for w in range(5):
        assert generate_index_set("sum", dim, w).indices == recursive_sum_set(dim, w)


def test_sum_2_3_exact_members():
    ms = generate_index_set("sum", 2, 3)
    assert ms.indices == (
        (1, 1), (1, 2), (1, 3), (1, 4),
        (2, 1), (2, 2), (2, 3),
        (3, 1), (3, 2),
        (4, 1),
    )


def test_max_3_1_is_the_lattice_corner():
    ms = generate_index_set("max", 3, 1)
    assert len(ms) == 8
    assert set(ms.indices) == set(product((1, 2), repeat=3))


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_sum_w0_is_singleton(dim):
    ms = generate_index_set("sum", dim, 0)
    assert ms.indices == ((1,) * dim,)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("w", [0, 1, 2, 3, 4, 5, 6])
def test_sum_sets_match_brute_force_and_binomial_count(dim, w):
    ms = generate_index_set("sum", dim, w)
    assert list(ms.indices) == brute_force_sum_set(dim, w)
    assert len(ms) == comb(w + dim, dim)


@pytest.mark.parametrize("kind", ["sum", "max"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("w", [0, 1, 2, 3, 4, 5, 6])
def test_generated_sets_are_downward_closed(kind, dim, w):
    ms = generate_index_set(kind, dim, w)
    assert is_downward_closed(ms.indices)


def test_is_downward_closed_examples():
    assert is_downward_closed([(1, 1), (2, 1), (1, 2)])
    assert not is_downward_closed([(1, 1), (2, 2)])
    assert is_downward_closed(generate_index_set("sum", 3, 4).indices)


def test_generate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_index_set("sum", 0, 2)
    with pytest.raises(ValueError):
        generate_index_set("sum", 2, -1)
    with pytest.raises(ValueError):
        generate_index_set("simplex", 2, 1)


def test_fig4_breakdown_coefficients():
    ms = generate_index_set("sum", 2, 3)
    coeffs = combination_coefficients(ms)
    nonzero = {i: c for i, c in coeffs.items() if c != 0}
    assert nonzero == {
        (1, 3): -1, (1, 4): 1,
        (2, 2): -1, (2, 3): 1,
        (3, 1): -1, (3, 2): 1,
        (4, 1): 1,
    }
    # zero-coefficient indices stay in the map
    assert set(coeffs) == set(ms.indices)


def test_w0_coefficients_singleton():
    ms = generate_index_set("sum", 4, 0)
    assert combination_coefficients(ms) == {(1, 1, 1, 1): 1}


def test_max_set_collapses_to_top_corner():
    ms = generate_index_set("max", 3, 1)
    coeffs = combination_coefficients(ms)
    nonzero = {i: c for i, c in coeffs.items() if c != 0}
    assert nonzero == {(2, 2, 2): 1}


@pytest.mark.parametrize("kind", ["sum", "max"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("w", [0, 1, 2, 3, 4, 5, 6])
def test_coefficients_telescope_to_one(kind, dim, w):
    coeffs = combination_coefficients(generate_index_set(kind, dim, w))
    assert sum(coeffs.values()) == 1


def oracle_coefficients(mset):
    """The full 2^dim shift sum: c_i = sum of (-1)^|j| over i + j in the set."""
    members = set(mset.indices)
    shifts = list(product((0, 1), repeat=mset.dim))
    return {idx: sum(-1 if sum(j) % 2 else 1 for j in shifts
                     if tuple(a + b for a, b in zip(idx, j)) in members)
            for idx in mset.indices}


@pytest.mark.parametrize("kind,dim,w", [
    ("sum", 1, 6), ("sum", 3, 5), ("sum", 5, 4), ("sum", 8, 4), ("sum", 10, 2),
    ("max", 2, 5), ("max", 4, 2), ("max", 6, 1), ("max", 10, 0),
])
def test_coefficients_match_full_shift_sum(kind, dim, w):
    ms = generate_index_set(kind, dim, w)
    assert combination_coefficients(ms) == oracle_coefficients(ms)


def test_coefficients_match_full_shift_sum_on_explicit_sets():
    ragged = explicit_index_set([(1, 1, 1), (2, 1, 1), (3, 1, 1), (1, 2, 1), (2, 2, 1),
                                 (1, 1, 2), (1, 1, 3), (1, 2, 2), (4, 1, 1)])
    assert combination_coefficients(ragged) == oracle_coefficients(ragged)
    # a union of a sum set and a long axis in a high dimension
    union = explicit_index_set(set(generate_index_set("sum", 7, 2).indices)
                               | {(k, 1, 1, 1, 1, 1, 1) for k in range(1, 7)})
    assert combination_coefficients(union) == oracle_coefficients(union)


def test_coefficients_reject_non_downward_closed():
    with pytest.raises(ValueError):
        combination_coefficients(MultiIndexSet(kind="explicit", w=1, dim=2,
                                               indices=((1, 1), (2, 2))))


@pytest.mark.parametrize("kind,w,indices,match", [
    ("explicit", 0, (), "empty index collection"),
    ("explicit", 1, ((1, 1), (2, 1), (1, 2))[::-1], "sorted"),
    ("explicit", 1, ((1, 1), (1, 2), (1, 2), (2, 1)), "repeats"),
    ("explicit", 2, ((1, 1), (2, 2)), "downward-closed"),
    ("explicit", 2, ((1, 1), (1, 2), (2, 1)), "'explicit' set of level w=2"),
    ("sum", 3, generate_index_set("sum", 2, 2).indices, "'sum' set of level w=3"),
    ("sum", 1, generate_index_set("sum", 2, 2).indices, "'sum' set of level w=1"),
    ("sum", 2, generate_index_set("max", 2, 1).indices, "'sum' set of level w=2"),
    ("max", 2, generate_index_set("max", 2, 1).indices, "'max' set of level w=2"),
    ("max", 2, generate_index_set("sum", 2, 4).indices, "'max' set of level w=2"),
    ("simplex", 1, ((1, 1), (1, 2), (2, 1)), "'simplex' set of level w=1"),
], ids=["empty", "unsorted", "repeated", "not_closed", "explicit_wrong_w", "sum_w2_labeled_w3",
        "sum_w2_labeled_w1", "max_w1_labeled_sum", "max_w1_labeled_w2", "sum_w4_labeled_max",
        "unknown_kind"])
def test_index_set_is_checked_when_made(kind, w, indices, match):
    with pytest.raises(ValueError, match=match):
        MultiIndexSet(kind=kind, w=w, dim=2, indices=indices)


def test_explicit_set_accepts_any_downward_closed_collection():
    ms = explicit_index_set([(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
    assert ms.kind == "explicit"
    assert sum(combination_coefficients(ms).values()) == 1
    with pytest.raises(ValueError):
        explicit_index_set([(1, 1), (3, 1)])


def test_json_round_trip():
    ms = generate_index_set("sum", 3, 2)
    blob = json.dumps(index_set_to_json_dict(ms))
    ms2 = index_set_from_json_dict(json.loads(blob))
    assert ms2 == ms
    assert combination_coefficients(ms2) == combination_coefficients(ms)
    data = json.loads(blob)
    assert data["kind"] == "sum" and data["w"] == 2 and data["N"] == 3
