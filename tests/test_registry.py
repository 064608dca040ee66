"""The experiment catalog: every row names a real driver, every driver
module has a row, and a cached run imports no model code. Serving loads
only what its endpoints call, and no package ``__init__`` imports."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.experiments.engine import ExecutionEngine
from repro.experiments.registry import CATALOG, EXPERIMENTS, get_spec

PACKAGE_DIR = Path(repro.__file__).parent
EXPERIMENTS_DIR = PACKAGE_DIR / "experiments"

#: Modules of ``repro/experiments/`` that run experiments but drive none.
INFRASTRUCTURE = {"__init__", "base", "cache", "cli", "engine", "registry", "report"}

#: What only computing an experiment may import.
MODEL_MODULES = ("numpy", "scipy") + tuple(
    f"repro.{layer}"
    for layer in (
        "tech", "circuits", "pipeline", "core", "noc", "memory", "power",
        "system", "thermal", "workloads", "validation",
    )
)


class TestCatalog:
    def test_every_row_resolves_to_a_driver_in_its_module(self):
        assert len(EXPERIMENTS) == len(CATALOG) == 27
        for experiment_id, module, function, _cost in CATALOG:
            spec = get_spec(experiment_id)
            runner = spec.runner
            assert callable(runner), experiment_id
            assert runner.__module__ == f"repro.experiments.{module}"
            assert runner.__name__ == function
            # The file the cache key digests is the runner's own source.
            assert spec.source_file == inspect.getsourcefile(runner)

    def test_every_driver_module_has_a_row(self):
        modules = {path.stem for path in EXPERIMENTS_DIR.glob("*.py")}
        assert modules - INFRASTRUCTURE == {row[1] for row in CATALOG}


#: Modules that no experiment, CLI command or serve endpoint imports,
#: each with the reason it stays in the package.
UNREACHED = {
    "repro.system.tracesim": "counts bus transactions from real cache "
    "state: a candidate referee for diagnosing the multicore saturation "
    "clamp",
    "repro.memory.coherence": "the functional protocols tracesim runs",
    "repro.workloads.synthetic": "the memory traces tracesim runs",
    "repro.memory.cacti": "re-derives Table 4's cache latencies",
    "repro.memory.cll_dram": "re-derives Table 4's DRAM latency",
}


def _modules_loaded_by(code, cache_dir, prefixes=MODEL_MODULES):
    """Modules under ``prefixes`` in ``sys.modules`` of a fresh
    interpreter after it runs ``code``."""
    probe = (
        "import json, sys\n"
        f"{code}\n"
        f"heavy = {prefixes!r}\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if any(m == h or m.startswith(h + '.') for h in heavy))))\n"
    )
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(repro.__file__).parents[1]),
        "CRYOWIRE_CACHE_DIR": str(cache_dir),
    }
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _modules_loaded_after(argv, cache_dir):
    """Model modules loaded by ``cryowire <argv>``, which must return 0."""
    return _modules_loaded_by(
        f"from repro.experiments.cli import main\nassert main({argv!r}) == 0",
        cache_dir,
    )


class TestColdImports:
    def test_list_imports_no_model(self, tmp_path):
        assert _modules_loaded_after(["list"], tmp_path / "cache") == []

    def test_warm_run_imports_no_model(self, tmp_path):
        cache_dir = tmp_path / "cache"
        ids = ["fig20", "table4"]
        ExecutionEngine(jobs=1, cache_dir=cache_dir).run(ids)  # fill it here
        assert _modules_loaded_after(["run", *ids], cache_dir) == []

    def test_serving_and_computing_import_no_scipy(self, tmp_path):
        modules = ["repro.serve.app"] + [f"repro.experiments.{row[1]}" for row in CATALOG]
        loaded = _modules_loaded_by(
            f"import importlib\nfor name in {modules!r}: importlib.import_module(name)",
            tmp_path / "cache",
        )
        assert "repro.tech.resistivity" in loaded  # the model really loaded
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []

    def test_serving_imports_no_numpy_random(self, tmp_path):
        """numpy's random package costs the server ~2.3 MB of peak RSS;
        only drawing traffic needs it, so importing the model must not."""
        loaded = _modules_loaded_by("import repro.serve.app", tmp_path / "cache")
        assert "repro.noc.latency" in loaded  # the NoC layer really loaded
        assert [m for m in loaded if m.startswith("numpy.random")] == []

    def test_serving_loads_no_engine_it_never_calls(self, tmp_path):
        """No endpoint reaches the packet-level NoC engine, the traffic
        generator, CACTI, CLL-DRAM, the coherence engines or trace
        synthesis, so serving does not load them."""
        loaded = _modules_loaded_by("import repro.serve.app", tmp_path / "cache")
        assert "repro.tech.mosfet" in loaded  # the model really loaded
        unreached = {
            "repro.noc.simulator", "repro.noc.traffic", "repro.memory.cacti",
            "repro.memory.cll_dram", "repro.memory.coherence",
            "repro.workloads.synthetic",
        }
        assert unreached.isdisjoint(loaded)

    def test_every_module_is_reached_or_named(self, tmp_path):
        """Importing the CLI, the report, serve and every driver loads
        every module of the package but those :data:`UNREACHED` names,
        and none of those: a module nothing reaches is named with its
        reason or deleted."""
        modules = [
            "repro.experiments.cli", "repro.experiments.report", "repro.serve.app",
        ] + [f"repro.experiments.{row[1]}" for row in CATALOG]
        loaded = set(_modules_loaded_by(
            f"import importlib\nfor name in {modules!r}: importlib.import_module(name)",
            tmp_path / "cache",
            prefixes=("repro",),
        ))
        package = set()
        for path in PACKAGE_DIR.rglob("*.py"):
            parts = path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts
            package.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        assert package - loaded == set(UNREACHED)


class TestPackageInits:
    def test_inits_import_nothing_and_repro_binds_only_its_version(self):
        """Each name has one home, the module that defines it. A package
        ``__init__`` that re-exported names would run every sibling it
        names on any submodule import; ``repro`` keeps only the version
        the result cache reads."""
        for init in PACKAGE_DIR.rglob("__init__.py"):
            tree = ast.parse(init.read_text())
            imports = [
                node.lineno for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            ]
            assert imports == [], f"{init} imports on lines {imports}"
        top = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
        _docstring, *statements = top.body
        assert [ast.unparse(node) for node in statements] == [
            f"__version__ = {repro.__version__!r}"
        ]
