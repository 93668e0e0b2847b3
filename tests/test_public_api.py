"""The public API surface promised by README must exist and be usable."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_readme_snippet_classes(self):
        # The classes the README quickstart uses.
        from repro.core import (ControlPlane, ControllerDaemon, IATParams,
                                IATPolicy)
        from repro.net import TrafficSpec
        from repro.sim import Platform, Simulation, XEON_6140
        from repro.tenants import Priority, Tenant
        from repro.workloads import TestPmd
        assert all((ControlPlane, ControllerDaemon, IATParams, IATPolicy,
                    TrafficSpec, Platform, Simulation, XEON_6140, Priority,
                    Tenant, TestPmd))


class TestSubpackages:
    @pytest.mark.parametrize("module", [
        "repro.cache", "repro.mem", "repro.pci", "repro.net",
        "repro.vswitch", "repro.tenants", "repro.workloads", "repro.perf",
        "repro.sim", "repro.core", "repro.experiments", "repro.cli",
        "repro.obs",
    ])
    def test_importable_with_all(self, module):
        mod = importlib.import_module(module)
        assert hasattr(mod, "__doc__") and mod.__doc__
        if hasattr(mod, "__all__"):
            for name in mod.__all__:
                assert getattr(mod, name, None) is not None, \
                    f"{module}.{name}"

    def test_every_public_callable_documented(self):
        """Doc comments on every public item (deliverable e)."""
        import inspect
        for module_name in ("repro.cache", "repro.core", "repro.sim",
                            "repro.workloads", "repro.perf"):
            mod = importlib.import_module(module_name)
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    assert obj.__doc__, f"{module_name}.{name} undocumented"
