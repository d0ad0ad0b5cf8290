"""Documentation and packaging hygiene checks.

Keeps the deliverables honest: every promised doc exists, every bench
target DESIGN.md names is a real file, every public module carries a
docstring, public surfaces of the bench/engine/telemetry subsystems
are fully documented, the package version matches pyproject, the
package runs on the standard library alone, and the committed bench
baseline covers exactly the registered probes.
"""

import ast
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent

#: Subsystems whose exported symbols must each carry a docstring —
#: including public methods and properties of exported classes.
DOCUMENTED_SURFACES = [
    "repro.bench",
    "repro.bench.registry",
    "repro.bench.harness",
    "repro.bench.compare",
    "repro.engine",
    "repro.engine.backends",
    "repro.engine.phases",
    "repro.engine.registry",
    "repro.cores.cgooo",
    "repro.cmp.migration",
    "repro.experiments.backend_matrix",
    "repro.telemetry.events",
    "repro.api",
    "repro.config",
    "repro.workloads.scenario",
    "repro.engine.lifecycle",
    "repro.cluster",
    "repro.cluster.scheduler",
    "repro.cluster.dynamic",
    "repro.metrics.scenario",
    "repro.service",
    "repro.service.protocol",
    "repro.service.jobs",
    "repro.service.journal",
    "repro.service.server",
    "repro.service.client",
    "repro.service.cli",
]


def _public_exports(module):
    """The module's __all__, or its public defined-here symbols."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and getattr(obj, "__module__", None) == module.__name__
    ]


class TestDocuments:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md",
        "docs/architecture.md", "docs/api.md", "docs/service.md",
    ])
    def test_document_exists_and_is_substantial(self, name):
        path = REPO / name
        assert path.exists(), name
        assert len(path.read_text()) > 1_000, name

    def test_design_bench_targets_exist(self):
        """Every `benchmarks/test_*.py` that DESIGN.md references."""
        design = (REPO / "DESIGN.md").read_text()
        referenced = {
            token.strip("`")
            for token in design.split()
            if token.strip("`").startswith("benchmarks/test_")
        }
        assert referenced, "DESIGN.md should reference bench targets"
        for rel in referenced:
            assert (REPO / rel).exists(), rel

    def test_experiments_md_covers_every_figure(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for figure in ("Table 1", "Figure 1", "Figure 2", "Figure 3b",
                       "Figure 5", "Figure 6", "Figure 7", "Figure 8",
                       "Figure 9a", "Figure 9b", "Figure 10",
                       "Figure 11", "Figure 12", "Figure 13",
                       "Figure 14", "Figure 15"):
            assert figure in text, figure


class TestPackaging:
    def test_version_matches_pyproject(self):
        pyproject = (REPO / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject

    def test_runs_on_the_standard_library_alone(self):
        """No declared runtime dependency, and no import outside the
        standard library and ``repro`` itself."""
        allowed = set(sys.stdlib_module_names) | {"repro"}
        foreign = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                foreign += [f"{path.relative_to(REPO)}: {name}"
                            for name in names
                            if name.split(".")[0] not in allowed]
        assert not foreign, foreign
        pyproject = (REPO / "pyproject.toml").read_text()
        assert "\ndependencies = []\n" in pyproject

    def test_bench_baseline_covers_exactly_the_registered_probes(self):
        from repro.bench import BENCHMARKS

        baseline = json.loads((REPO / "BENCH_baseline.json").read_text())
        assert set(baseline["benchmarks"]) == set(BENCHMARKS)

    def test_public_exports_resolve(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            assert hasattr(repro, name), name

    def test_every_module_has_a_docstring(self):
        missing = []
        for info in pkgutil.walk_packages(repro.__path__,
                                          prefix="repro."):
            module = importlib.import_module(info.name)
            if not (module.__doc__ or "").strip():
                missing.append(info.name)
        assert not missing, missing

    @pytest.mark.parametrize("modname", DOCUMENTED_SURFACES)
    def test_every_exported_symbol_has_a_docstring(self, modname):
        """Exported functions, classes, and their public members."""
        module = importlib.import_module(modname)
        missing = []
        for name in _public_exports(module):
            obj = getattr(module, name)
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue  # re-exported constants document themselves
            if not (inspect.getdoc(obj) or "").strip():
                missing.append(name)
            if inspect.isclass(obj):
                for attr, value in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(value) or isinstance(
                            value, property):
                        if not (value.__doc__ or "").strip():
                            missing.append(f"{name}.{attr}")
        assert not missing, f"{modname}: undocumented {missing}"

    def test_examples_are_runnable_scripts(self):
        examples = sorted((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3
        for path in examples:
            text = path.read_text()
            assert '__name__ == "__main__"' in text, path.name
            assert text.lstrip().startswith('"""'), path.name
