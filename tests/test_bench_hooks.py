"""The benchmark's tracer still finds, patches and restores every hook it names."""

import importlib.util
from pathlib import Path

# Tracer.install imports cli and golden; importing them here first makes both
# snapshots list the same package modules when this file runs on its own
from poincare_series import algebra, cli, golden  # noqa: F401

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot(tracing):
    owners = tracing.package_modules() + [algebra.Poly, algebra.RatFun, algebra.FactoredRatFun]
    return {(owner.__name__, attr): value for owner in owners for attr, value in vars(owner).items()}


def test_install_then_uninstall_restores_every_attribute():
    tracing = load_tracing()
    before = snapshot(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patches = list(tracer.patches)
        assert patches
        assert all(getattr(owner, attr) is not original for owner, attr, original in patches)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patches)
    after = snapshot(tracing)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
