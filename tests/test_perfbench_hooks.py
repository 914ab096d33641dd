"""The names ``perfbench/layers.py`` patches must resolve in the program.

The benchmark wraps layer entry points at their import sites, each
engine class's ``run``, and the campaign module's ``CompileCache``.  A
rename of any of them would otherwise surface only when the traced
benchmark runs; this test reads the benchmark's own tables, so it
follows them without a copy.
"""

import importlib
import importlib.util
import pathlib

LAYERS = (pathlib.Path(__file__).resolve().parents[1]
          / "perfbench" / "layers.py")


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_entry_points_resolve():
    layers = _layers()
    assert layers.ENTRY_POINTS
    for module, attr, _ in layers.ENTRY_POINTS:
        assert callable(getattr(importlib.import_module(module), attr)), (
            f"{module}.{attr}")


def test_engine_classes_and_run_resolve():
    layers = _layers()
    assert layers.ENGINES
    for module, cls_name, _ in layers.ENGINES:
        cls = getattr(importlib.import_module(module), cls_name)
        assert isinstance(cls, type) and callable(cls.run), cls_name


def test_campaign_compile_cache_resolves():
    from repro.compiler import CompileCache
    from repro.fuzz import campaign

    assert campaign.CompileCache is CompileCache
