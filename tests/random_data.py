"""Random valid descent data for the descent and acceptance tests."""

from fractions import Fraction

from galforms import qlinalg
from galforms.descent import conjugate_datum, identity_datum, transport_datum


def random_datum(action, dim, rand, twisted=True):
    """A valid datum built by construction: start from the untwisted
    identity datum, transport by a random coboundary primitive, and
    conjugate by a random invertible matrix, all with coefficients in
    [-2, 2]."""
    datum = identity_datum(action, dim)
    field = action.field
    if twisted and dim:
        primitive = {}
        for g in action.group.elements():
            while True:
                coords = [
                    Fraction(rand.randint(-2, 2))
                    for _ in range(field.degree)
                ]
                if any(coords):
                    break
            primitive[g] = field.element(coords)
        primitive[action.group.identity] = field.one()
        datum = transport_datum(datum, primitive)
    if dim:
        while True:
            p = [
                [
                    Fraction(rand.randint(-2, 2))
                    for _ in range(dim)
                ]
                for _ in range(dim)
            ]
            if qlinalg.mat_inv(p) is not None:
                break
        datum = conjugate_datum(datum, p)
    return datum
