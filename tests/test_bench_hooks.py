"""The benchmark's tracer wraps library names by name, from outside:
perfbench/tracing.py replaces functions and methods in the modules and
classes of greenlinks and puts the originals back.  A library change
that drops or moves a name it wraps breaks the benchmark's traced mode
(install raises KeyError) without failing any other test."""

import importlib.util
import sys
from pathlib import Path

from greenlinks import apps, cli, identity, scenario, simcore, sync, topology, whitespace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def namespaces():
    """Every library module and every class defined in one."""
    for module in (apps, cli, identity, scenario, simcore, sync, topology, whitespace):
        yield module
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def test_tracing_installs_and_restores_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = {space: dict(vars(space)) for space in namespaces()}
    installed = tracing.install(tracing.Tracer())
    try:
        wrapped = [
            (space, name)
            for space, names in before.items()
            for name, value in vars(space).items()
            if names.get(name) is not value
        ]
    finally:
        installed.remove()
    assert wrapped
    for space, names in before.items():
        now = vars(space)
        assert [n for n in names if now.get(n) is not names[n]] == [], space
        assert now.keys() == names.keys(), space
