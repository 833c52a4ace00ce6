"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def compiled(monkeypatch):
    """The names of the functions the one code generator compiles while the test
    runs, counted in every module that imports it (``CartanData.ascent``
    imports it from `codegen` on a type's first walk)."""
    from weylipse import codegen, orbits, quadrics

    real, names = codegen._generated, []

    def counting(name, *args, **kwargs):
        names.append(name)
        return real(name, *args, **kwargs)

    for module in (codegen, orbits, quadrics):
        monkeypatch.setattr(module, "_generated", counting)
    return names
