"""Hygiene tests over the public API surface.

Every exported name must resolve and be documented; every package module
must carry a module docstring.  These tests keep the library's "open
source release" bar enforced mechanically.
"""

import importlib
import pathlib
import pkgutil

import pytest

import repro

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent


def iter_module_names():
    yield "repro"
    for info in pkgutil.walk_packages([str(PACKAGE_ROOT)], prefix="repro."):
        yield info.name


ALL_MODULES = sorted(set(iter_module_names()))


class TestExports:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_imports_and_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    @pytest.mark.parametrize(
        "module_name",
        [name for name in ALL_MODULES if name.count(".") == 1],
    )
    def test_package_all_entries_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_exported_callables_documented(self):
        for name in repro.__all__:
            item = getattr(repro, name, None)
            if callable(item):
                assert item.__doc__, f"repro.{name} lacks a docstring"

    def test_version_matches_pyproject(self):
        pyproject = (PACKAGE_ROOT.parent.parent / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject


class TestPublicMethodDocstrings:
    @pytest.mark.parametrize(
        "cls_path",
        [
            "repro.core.protocol.DupProtocol",
            "repro.core.subscriber_list.SubscriberList",
            "repro.core.maintenance.DupMaintenance",
            "repro.engine.simulation.Simulation",
            "repro.engine.multikey.MultiKeyScaleSimulation",
            "repro.topology.tree.SearchTree",
            "repro.topology.chord.ChordRing",
            "repro.topology.can.CanOverlay",
            "repro.index.cache.IndexCache",
            "repro.index.authority.Authority",
            "repro.sim.core.Environment",
        ],
    )
    def test_public_methods_documented(self, cls_path):
        module_name, cls_name = cls_path.rsplit(".", 1)
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert cls.__doc__, cls_path
        undocumented = [
            name
            for name, member in vars(cls).items()
            if callable(member)
            and not name.startswith("_")
            and not member.__doc__
        ]
        assert not undocumented, f"{cls_path}: {undocumented}"
