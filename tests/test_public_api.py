"""Public-API hygiene: every exported name exists and imports cleanly."""

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

PACKAGES = (
    "repro",
    "repro.data",
    "repro.data.synth",
    "repro.ml",
    "repro.core",
    "repro.audit",
    "repro.baselines",
    "repro.experiments",
    "repro.stream",
)


@pytest.mark.parametrize("package", PACKAGES)
class TestPublicApi:
    def test_imports(self, package):
        importlib.import_module(package)

    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", [])
        for name in exported:
            assert hasattr(module, name), f"{package}.__all__ lists missing {name}"

    def test_no_duplicate_exports(self, package):
        module = importlib.import_module(package)
        exported = list(getattr(module, "__all__", []))
        assert len(exported) == len(set(exported))


def test_version_string():
    import repro

    assert repro.__version__ == "1.0.0"


def test_cli_module_importable():
    from repro.cli import build_parser

    parser = build_parser()
    assert parser.prog == "repro"


def test_sanctioned_packages_are_declared_and_installed():
    """Every third-party package the import rule (R001) allows is a declared
    dependency and is installed by the CI workflow."""
    tomllib = pytest.importorskip("tomllib")
    from repro.analysis import SANCTIONED_PACKAGES

    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
        for spec in project["dependencies"]
    }
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    installed = {
        word
        for line in workflow.splitlines()
        if "pip install" in line
        for word in line.split("pip install", 1)[1].split()
    }
    for package in sorted(SANCTIONED_PACKAGES - {"repro"}):
        assert package in declared, f"{package} missing from pyproject.toml"
        assert package in installed, f"{package} missing from the CI install line"
