"""Multi-index sets and combination-technique coefficients.

A multi-index is a tuple of positive integer discretization levels, one per
uncertain parameter.  A downward-closed multi-index set selects the tensor
grids of a sparse grid, whose knot positions form the lower set of degrees the
surrogate interpolates on in Newton form.  The combination coefficients only
fix the order of the grid points and are serialized with the index set.
Two standard families are supported:

* ``sum``:  all i with sum(i_n - 1) <= w  (total-degree style, the usual choice)
* ``max``:  all i with max(i_n - 1) <= w  (a full tensor grid in disguise)

Arbitrary downward-closed sets are ``explicit``.  A set is checked once, when it is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

__all__ = [
    "MultiIndexSet",
    "generate_index_set",
    "explicit_index_set",
    "is_downward_closed",
    "combination_coefficients",
    "index_set_to_json_dict",
    "index_set_from_json_dict",
]

MultiIndex = tuple[int, ...]
#: the defining families ``generate_index_set`` builds
KINDS = ("sum", "max")


@dataclass(frozen=True)
class MultiIndexSet:
    """Immutable, lexicographically ordered, downward-closed collection of multi-indices.

    Attributes
    ----------
    kind : str
        "sum", "max" or "explicit".
    w : int
        Level budget.  A "sum" or "max" set is the whole family of level w;
        for explicit sets this is the largest total level sum(i_n - 1) in the set.
    dim : int
        Number of parameters; every index has this length.
    indices : tuple of tuples
        The member indices, sorted lexicographically.
    """

    kind: str
    w: int
    dim: int
    indices: tuple[MultiIndex, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.w < 0:
            raise ValueError(f"level budget must be >= 0, got {self.w}")
        for idx in self.indices:
            if len(idx) != self.dim:
                raise ValueError(f"index {idx} has length {len(idx)}, expected {self.dim}")
            if any(c < 1 for c in idx):
                raise ValueError(f"index {idx} has a component < 1")
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("indices must be sorted lexicographically, without repeats")
        if not is_downward_closed(self.indices):
            raise ValueError("index set is not downward-closed")
        # distinct indices within a family's level bound, as many as the family has, are it
        total = max(sum(i) for i in self.indices) - self.dim
        if self.kind == "sum":
            ok = total <= self.w and len(self) == math.comb(self.w + self.dim, self.dim)
        elif self.kind == "max":
            ok = max(map(max, self.indices)) - 1 <= self.w and len(self) == (self.w + 1) ** self.dim
        else:
            ok = self.kind == "explicit" and total == self.w
        if not ok:
            raise ValueError(f"the indices do not make a {self.kind!r} set of level w={self.w}")

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


def generate_index_set(kind: str, dim: int, w: int) -> MultiIndexSet:
    """Generate the defining "sum" or "max" multi-index set.

    Parameters
    ----------
    kind : {"sum", "max"}
    dim : int
        Number of parameters, >= 1.
    w : int
        Level budget, >= 0.
    """
    kind = kind.lower()
    if kind == "max":
        indices = sorted(product(range(1, w + 2), repeat=dim))
    elif kind == "sum":
        # every index within w unit steps of (1, ..., 1), one total level at a time
        members = level = {(1,) * dim}
        for _ in range(w):
            level = {i[:n] + (i[n] + 1,) + i[n + 1:] for i in level for n in range(dim)}
            members |= level
        indices = sorted(members)
    else:
        raise ValueError(f"unknown index-set kind {kind!r}; expected one of {KINDS}")
    return MultiIndexSet(kind=kind, w=w, dim=dim, indices=tuple(indices))


def explicit_index_set(indices) -> MultiIndexSet:
    """Wrap a user-supplied collection of multi-indices.

    The collection must be nonempty and downward closed.
    """
    idx = sorted({tuple(int(c) for c in i) for i in indices})
    if not idx:
        raise ValueError("empty index collection")
    w = max(sum(c - 1 for c in i) for i in idx)
    return MultiIndexSet(kind="explicit", w=w, dim=len(idx[0]), indices=tuple(idx))


def is_downward_closed(indices) -> bool:
    """True iff every backward neighbor i - e_n (where i_n > 1) is a member."""
    members = {tuple(i) for i in indices}
    if not members:
        raise ValueError("empty index collection")
    for idx in members:
        for n, c in enumerate(idx):
            if c > 1:
                neighbor = idx[:n] + (c - 1,) + idx[n + 1:]
                if neighbor not in members:
                    return False
    return True


def combination_coefficients(mset: MultiIndexSet) -> dict[MultiIndex, int]:
    """Combination-technique coefficient of every index in the set.

    c_i = sum over j in {0,1}^dim with i + j in the set of (-1)^(|j|_1).
    Indices with zero coefficient are retained so callers can report the
    full breakdown; the coefficients always sum to 1.

    In a downward-closed set i + j is a member only if every i + e_n with
    j_n = 1 is, so the sum grows j one dimension at a time and keeps only
    member terms: the work is dim times the number of member terms, not 2^dim.
    """
    members = set(mset.indices)
    coeffs: dict[MultiIndex, int] = {}
    for idx in mset.indices:
        terms = [(idx, 1)]
        for n in range(mset.dim):
            terms += [(up, -sign) for t, sign in terms
                      if (up := t[:n] + (t[n] + 1,) + t[n + 1:]) in members]
        coeffs[idx] = sum(sign for _, sign in terms)
    return coeffs


def index_set_to_json_dict(mset: MultiIndexSet) -> dict:
    """Serializable form with parallel arrays in lexicographic index order."""
    coeffs = combination_coefficients(mset)
    return {
        "kind": mset.kind,
        "w": mset.w,
        "N": mset.dim,
        "indices": [list(i) for i in mset.indices],
        "coefficients": [int(coeffs[i]) for i in mset.indices],
    }


def index_set_from_json_dict(data: dict) -> MultiIndexSet:
    """The stored index set; its coefficients follow from the indices and are not read."""
    indices = tuple(tuple(int(c) for c in i) for i in data["indices"])
    return MultiIndexSet(kind=data["kind"], w=int(data["w"]), dim=int(data["N"]), indices=indices)
