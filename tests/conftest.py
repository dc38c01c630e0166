"""A record of what the tests build, for test_theorems.py.

The library checks its inputs once, where they enter, and trusts three
theorems instead of re-checking their conclusions: a valid descent datum
is a module over the crossed product, an untwisted one has a k-form of
full dimension (Speiser's lemma), and the quaternion class (d, c) is
bilinear in c.  test_theorems.py checks those conclusions on every
descent datum, inner-form invariant and coboundary isomorphism that any
test, golden included, builds; its tests run after all the others.

Each recorded function is replaced in every galforms namespace that binds
it before the test modules import it, so `from galforms.x import f`
in a test reads the recording wrapper too."""

import sys

import pytest

import galforms.cli  # loads every galforms module

BUILT = {"data": {}, "invariants": {}, "isomorphisms": {}}


def _record(module, name, kind, pick):
    """Wrap module.name so that pick(args, result) is kept in BUILT[kind],
    once per object."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        obj = pick(args, result)
        BUILT[kind].setdefault(id(obj), obj)
        return result

    namespaces = [m for n, m in sys.modules.items() if n == "galforms" or n.startswith("galforms.")]
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            if value is original:
                setattr(namespace, attr, wrapper)


_record(galforms.descent, "validate_datum", "data", lambda args, result: args[0])
_record(galforms.classify, "build_inner_invariant", "invariants", lambda args, result: result)
_record(galforms.crossed, "coboundary_isomorphism", "isomorphisms", lambda args, result: result)


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.path.name == "test_theorems.py")


@pytest.fixture(scope="session")
def built():
    return BUILT
