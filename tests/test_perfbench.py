"""The benchmark's tracer and probes still fit the package: every entry
point the tracer wraps exists and is called through, and the probes'
imports resolve."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import siegelvec

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_every_wrapper_and_probes_import(tmp_path):
    tracer = _load("tracer")
    src = os.path.dirname(os.path.dirname(siegelvec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    spans = tmp_path / "spans.json"
    child = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), str(spans), "--",
         "verify", "--suite", "oracle", "--q", "3", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    data = json.loads(spans.read_text())
    assert data["wrapped"] == [f"{layer}.{name}" for layer, name in tracer.WRAPPED]
    called = {span[0] for span in data["spans"]}
    for name in ("cli.suite_oracle", "models.decompose", "models.commutant_dim",
                 "models.TensorModel.fixed_rank", "models.ConstituentModel.fixed_rank"):
        assert name in called
    assert all(c["ok"] for c in json.loads(child.stdout)["checks"])
    probes = _load("probes")
    assert set(probes.PROBES) >= {"models.cuspidal_build_s", "models.commutant_solve_s"}
