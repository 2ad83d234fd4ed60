"""Permutation algebra on three band labels and its dihedral-group structure.

A permutation is stored as the mapping sigma: start band -> end band,
``image = (sigma(1), sigma(2), sigma(3))``.  The conventional string form
lists, for each band slot, which starting band occupies it after one cycle
(that is the inverse one-line notation), so the 3-cycle sending
1->3, 2->1, 3->2 prints as "231".
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NotAGroup

D3_LABELS = ("e", "mu1", "mu2", "mu3", "rho1", "rho2")


@dataclass(frozen=True)
class PermutationElement:
    image: tuple[int, int, int]

    def __post_init__(self):
        if sorted(self.image) != [1, 2, 3]:
            raise ValueError(f"not a permutation of (1,2,3): {self.image}")

    def __call__(self, x: int) -> int:
        return self.image[x - 1]

    def inverse(self) -> "PermutationElement":
        inv = [0, 0, 0]
        for start, end in enumerate(self.image, start=1):
            inv[end - 1] = start
        return PermutationElement(tuple(inv))

    def as_string(self) -> str:
        """Slot-occupancy string ("132", "231", ...) matching loop read-outs."""
        return "".join(str(x) for x in self.inverse().image)

    @classmethod
    def from_string(cls, s: str) -> "PermutationElement":
        occ = tuple(int(ch) for ch in s)
        return cls(occ).inverse()

    @classmethod
    def identity(cls) -> "PermutationElement":
        return cls((1, 2, 3))

    def order(self) -> int:
        p, n = self, 1
        while p.image != (1, 2, 3):
            p, n = compose(self, p), n + 1
        return n


def compose(a: PermutationElement, b: PermutationElement) -> PermutationElement:
    """(a o b)(x) = a(b(x)) -- b applied first."""
    return PermutationElement(tuple(a(b(x)) for x in (1, 2, 3)))


_LABEL_TO_IMAGE = {
    "e": (1, 2, 3),
    "mu1": (1, 3, 2),
    "mu2": (3, 2, 1),
    "mu3": (2, 1, 3),
    "rho1": (3, 1, 2),   # slot string "231"
    "rho2": (2, 3, 1),   # slot string "312"
}
_IMAGE_TO_LABEL = {v: k for k, v in _LABEL_TO_IMAGE.items()}


def element(label: str) -> PermutationElement:
    return PermutationElement(_LABEL_TO_IMAGE[label])


def identify(p: PermutationElement) -> str:
    return _IMAGE_TO_LABEL[p.image]


def to_matrix(p: PermutationElement) -> np.ndarray:
    """Defining 3x3 representation: entry (i, j) = 1 iff band j lands on band i."""
    m = np.zeros((3, 3))
    for j in (1, 2, 3):
        m[p(j) - 1, j - 1] = 1.0
    return m


def all_elements() -> tuple[PermutationElement, ...]:
    return tuple(element(lbl) for lbl in D3_LABELS)


@dataclass(frozen=True)
class GroupReport:
    labels: tuple[str, ...]
    orders: dict[str, int]
    cayley: dict[tuple[str, str], str]
    witness: tuple[str, str] | None   # non-commuting pair, None if abelian


def verify_group(elements: set[PermutationElement] | tuple[PermutationElement, ...]) -> GroupReport:
    """Check the group axioms on a set of permutations; raise NotAGroup on failure.

    Only identity and closure can fail: composing permutations is
    associative, and in a finite set closed under composition each a has
    its inverse a^(order - 1).

    The report carries element orders, the Cayley table, and a
    non-commuting witness pair (the generator pair is preferred when present).
    """
    elems = list(dict.fromkeys(elements))
    ident = PermutationElement.identity()
    if ident not in elems:
        raise NotAGroup("identity fails: identity element missing")
    for a, b in itertools.product(elems, repeat=2):
        if compose(a, b) not in elems:
            raise NotAGroup(f"closure fails: {identify(a)} o {identify(b)} = {identify(compose(a, b))} missing")

    witness = None
    mu1, mu3 = element("mu1"), element("mu3")
    if mu1 in elems and mu3 in elems and compose(mu1, mu3) != compose(mu3, mu1):
        witness = ("mu1", "mu3")
    else:
        for a, b in itertools.combinations(elems, 2):
            if compose(a, b) != compose(b, a):
                witness = (identify(a), identify(b))
                break
    labels = tuple(identify(e) for e in elems)
    return GroupReport(
        labels=labels,
        orders={identify(e): e.order() for e in elems},
        cayley={
            (identify(a), identify(b)): identify(compose(a, b))
            for a, b in itertools.product(elems, repeat=2)
        },
        witness=witness,
    )
