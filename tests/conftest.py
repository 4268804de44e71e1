"""Shared test set-up.  Hypothesis runs derandomized and without an
example database, and every tricomplete cache starts empty, so every
process draws the same examples and no test depends on an earlier one."""

import sys
from collections import Counter

import pytest
from hypothesis import settings

from tricomplete.complexes import ChainMap, Complex, ValidationError
from tricomplete.metric import GoodMetric, LinearExpr, first_shift_violation
from tricomplete.rmodule import RModuleMap

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def empty_caches():
    """Clears every lru_cache in the tricomplete modules before each test,
    so a test that counts or forbids work sees the build path, not a
    result an earlier test left cached."""
    caches = {id(value): value
              for name, mod in list(sys.modules.items())
              if mod is not None and name.split(".")[0] == "tricomplete"
              for value in vars(mod).values() if hasattr(value, "cache_clear")}
    for cache in caches.values():
        cache.cache_clear()


@pytest.fixture(autouse=True)
def recheck_trusted(monkeypatch):
    """Rebinds RModuleMap/Complex/ChainMap._trusted so that every trusted
    construction also runs its class's checks on the data it was given,
    and the sparse-storage invariant (no stored zero module, no stored map
    zero mod p): under the tests, a trusted construction skips no check."""
    # per class: the arguments of its _check, and the modules and maps it stores
    classes = ((RModuleMap, lambda args: (), lambda f: ((), ())),
               (Complex, lambda args: args[2:], lambda x: (x._components.values(), x._diffs.values())),
               (ChainMap, lambda args: args[2:], lambda f: ((), f._components.values())))
    for cls, given, stored in classes:
        def rechecked(*args, build=cls._trusted, given=given, stored=stored):
            obj = build(*args)
            obj._check(*given(args))
            modules, maps = stored(obj)
            if any(m.is_zero() for m in modules) or any(not (f.matrix.a % f.ring.p).any() for f in maps):
                raise ValidationError("trusted construction stores a zero component")
            return obj
        monkeypatch.setattr(cls, "_trusted", staticmethod(rechecked))


@pytest.fixture
def draw_good_metric():
    """Draws random good metrics from an rng: one or two pieces with
    endpoints a*n + b, a in -3..3 and b in -4..4, dual 30% of the time,
    redrawn until the shift axiom holds at every level."""

    def draw(rng):
        while True:
            pieces = []
            for _ in range(rng.randint(1, 2)):
                kind = rng.choice(("above", "below", "interval"))
                ends = 2 if kind == "interval" else 1
                pieces.append((kind,) + tuple(LinearExpr(rng.randint(-3, 3), rng.randint(-4, 4))
                                              for _ in range(ends)))
            m = GoodMetric("random", pieces, dual=rng.random() < 0.3)
            if first_shift_violation(m) is None:
                return m

    return draw


@pytest.fixture
def rebind(monkeypatch):
    """Replaces a function in every tricomplete namespace that binds it,
    since modules import each other's functions by name; undone after the
    test."""

    def rebind(fn, replacement):
        for name, mod in list(sys.modules.items()):
            if mod is not None and name.split(".")[0] == "tricomplete":
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, replacement)

    return rebind


@pytest.fixture
def count_calls(monkeypatch, rebind):
    """count_calls(*targets) starts counting calls to each function and
    constructions of each class, and returns the Counter, keyed by
    __name__.  A function is replaced through rebind; a class has its
    __init__ and its _trusted, if any, wrapped, so every construction
    counts, validated or trusted.  Each call adds its targets to the same
    Counter; clear it between phases of a test."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def count_calls(*targets):
        for target in targets:
            if isinstance(target, type):
                monkeypatch.setattr(target, "__init__", counted(target.__name__, target.__init__))
                if hasattr(target, "_trusted"):
                    monkeypatch.setattr(target, "_trusted",
                                        staticmethod(counted(target.__name__, target._trusted)))
            else:
                rebind(target, counted(target.__name__, target))
        return counts

    return count_calls
