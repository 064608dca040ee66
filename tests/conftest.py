"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the experiment result cache at a per-session temp dir.

    Tests exercising the CLI/engine must not read results cached by
    earlier runs on the developer's machine, nor pollute ~/.cache.
    """
    cache_dir = tmp_path_factory.mktemp("cryowire-cache")
    previous = os.environ.get("CRYOWIRE_CACHE_DIR")
    os.environ["CRYOWIRE_CACHE_DIR"] = str(cache_dir)
    yield cache_dir
    if previous is None:
        os.environ.pop("CRYOWIRE_CACHE_DIR", None)
    else:
        os.environ["CRYOWIRE_CACHE_DIR"] = previous

from repro.core.superpipeline import SuperpipelineTransform
from repro.experiments.registry import _SPECS, ExperimentSpec, run_experiment
from repro.pipeline.model import PipelineModel
from repro.tech.mosfet import CryoMOSFET, FREEPDK45_CARD, INDUSTRY_2Z_CARD
from repro.tech.wire import CryoWireModel


@pytest.fixture(scope="session")
def experiment_result():
    """``run_experiment(id)`` at default kwargs, run once per session.

    Drivers are deterministic, so the tests that only read a result
    share one: the full-suite test in ``test_engine.py`` computes all 27
    serially, and the experiment, ablation and robustness tests read
    them back.
    """
    results = {}

    def run(experiment_id):
        if experiment_id not in results:
            results[experiment_id] = run_experiment(experiment_id)
        return results[experiment_id]

    return run


@pytest.fixture
def register_driver(monkeypatch):
    """``register_driver(experiment_id, function)`` makes a module-level
    ``function`` the driver of ``experiment_id`` for one test, through
    the same catalog spec the real experiments use."""

    def register(experiment_id, function):
        spec = ExperimentSpec(experiment_id, function.__module__, function.__name__)
        monkeypatch.setitem(_SPECS, experiment_id, spec)

    return register


@pytest.fixture(scope="session")
def wire_model() -> CryoWireModel:
    return CryoWireModel()


@pytest.fixture(scope="session")
def logic_mosfet() -> CryoMOSFET:
    return CryoMOSFET(FREEPDK45_CARD)


@pytest.fixture(scope="session")
def industry_mosfet() -> CryoMOSFET:
    return CryoMOSFET(INDUSTRY_2Z_CARD)


@pytest.fixture(scope="session")
def pipeline_model() -> PipelineModel:
    return PipelineModel()


@pytest.fixture(scope="session")
def transform(pipeline_model: PipelineModel) -> SuperpipelineTransform:
    return SuperpipelineTransform(pipeline_model)
