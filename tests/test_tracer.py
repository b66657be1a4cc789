"""The benchmark's tracer still fits the package.

``bench/tracer.py`` wraps ``bookqa`` functions and methods by name, so a
renamed or deleted one would only show when the benchmark runs with tracing.
These tests load the tracer as it is and check that every name it wraps
resolves, and that installing and uninstalling it leaves the package as it
found it.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import bookqa

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_modules():
    return [
        importlib.import_module(f"bookqa.{info.name}")
        for info in pkgutil.iter_modules(bookqa.__path__)
    ]


def _attributes():
    """Every attribute of every ``bookqa`` module and of every class defined
    in one, by owner and name."""
    found = {}
    for module in [bookqa, *_package_modules()]:
        for name, value in vars(module).items():
            found[module.__name__, name] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    found[f"{module.__name__}.{name}", attr] = member
    return found


def test_every_traced_name_resolves(tracer):
    for module_name, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"bookqa.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"bookqa.{module_name}.{name}"
    for module_name, class_name, method, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"bookqa.{module_name}"), class_name, None)
        assert cls is not None, f"bookqa.{module_name}.{class_name}"
        assert callable(vars(cls).get(method)), f"bookqa.{module_name}.{class_name}.{method}"


def test_install_then_uninstall_leaves_the_package_as_it_was(tracer):
    before = _attributes()
    instance = tracer.Tracer()
    instance.install()
    try:
        during = _attributes()
        changed = [key for key, value in before.items() if during.get(key) is not value]
        assert ("bookqa.text", "tokenize") in changed
        assert ("bookqa.supervision", "supervision_stats") in changed
    finally:
        instance.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
