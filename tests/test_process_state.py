"""The package keeps no process-wide state that grows with its inputs."""

import copy
import gc
import importlib
import pkgutil
import tracemalloc

import cyclecert
import cyclecert.pullback as pullback_mod
from cyclecert.certify import certify
from cyclecert.heegner import HeegnerIndex, class_number, enumerate_heegner_divisor
from cyclecert.modcurves import cover_degree_over_x0, fricke_quotient_genus
from cyclecert.pullback import chow_heegner_divisor, decompose_heegner, verify_decomposition


def _modules():
    return [importlib.import_module("cyclecert." + info.name) for info in pkgutil.iter_modules(cyclecert.__path__)]


def _module_containers():
    # every module-level dict, list and set, by (module, name)
    return {
        (mod.__name__, name): value
        for mod in _modules()
        for name, value in vars(mod).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_cache_policy_is_pinned():
    # a new cache, or a new bound on one, is a deliberate change to this table
    cached = {}
    for mod in _modules():
        for obj in vars(mod).values():
            for fn in [obj, *(vars(obj).values() if isinstance(obj, type) else ())]:
                if callable(getattr(fn, "cache_info", None)):
                    cached[fn.__qualname__] = fn.cache_info().maxsize
    assert cached == {
        "hurwitz_class_number": 1024,
        "cover_profile": 256,
        "fixture_levels": 1,
        "_bundled_records": None,
    }


def test_no_module_level_container_caches_results():
    assert not hasattr(pullback_mod, "_INVERSE_THETA")
    before = copy.deepcopy(_module_containers())
    for level in (1, 2, 7, 37):
        decomp = decompose_heegner(level, 30, 0)
        verify_decomposition(decomp)
        chow_heegner_divisor(level, decomp)
        cover_degree_over_x0(level)
    enumerate_heegner_divisor(HeegnerIndex(37, -7, 17))
    class_number(4 * 37)
    fricke_quotient_genus(37)
    certify(74)
    assert _module_containers() == before


def test_pipeline_holds_no_memory_after_it_returns():
    gc.collect()
    tracemalloc.start()
    try:
        for level in range(2, 2001):
            cover_degree_over_x0(level)
        decompose_heegner(1, 5000, 0)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1_000_000
