"""The benchmark's span tracer patches rkadapt callables by name; every name
it patches must exist, and uninstalling must put back the same objects."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")
# `rkadapt.integrate` is the function the package exports, so each module is
# loaded by name
MODULES = ("dgsem", "control", "integrate", "stability", "search", "cli")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("rkadapt_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patch_targets_exist_and_uninstall_restores_them():
    tracing = _load_tracing()
    modules = [importlib.import_module(f"rkadapt.{name}") for name in MODULES]
    classes = [getattr(modules[0], name) for name in tracing.RHS_LABELS]
    before = {id(owner): dict(vars(owner)) for owner in modules + classes}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [(owner, attr) for owner, attr, _ in tracer._patches]
        assert patched
        for owner, attr in patched:
            assert vars(owner)[attr] is not before[id(owner)][attr], (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr in patched:
        assert vars(owner)[attr] is before[id(owner)][attr], (owner, attr)
