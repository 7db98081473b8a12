"""Checks on files outside the package: the README's quick start, the
quicker demos, the benchmark tracer's lookup sites and the CI workflow."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _child_env

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2


# every demo but the replication study 05 runs in seconds, so a public name
# that a demo uses cannot go away unnoticed
@pytest.mark.parametrize("demo", ["01_simulate_and_validate.py",
                                  "02_likelihood_machinery.py",
                                  "03_fitting_and_degrees.py",
                                  "04_bar_selection.py",
                                  "06_csv_and_cli.py"])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the tracer skips a name it cannot find, and its layer then reads 0;
    # a rename or a dropped import must fail here instead
    tracing = _perfbench("tracing")
    sites = [(module, cls, attr) for _, module, cls, attr in tracing.TARGETS]
    sites += [(module, None, attr) for _, module, attr in tracing.CAPTURED]
    missing = [site for site in sites
               if not tracing._present(tracing._owner(site[0], site[1]), site[2])]
    assert missing == []


@pytest.mark.parametrize("baseline", ["weibull", "bernstein"])
def test_benchmark_answer_check_accepts_a_fit(monkeypatch, baseline):
    # the benchmark recomputes each fit's log-likelihood with
    # scrbar.log_likelihood(..., quad=cfg.quadrature,
    # truncation=cfg.truncation); a fit it cannot check would make every
    # benchmark run fail
    from scrbar import FitConfig, fit_unpenalized
    from _helpers import small_dataset
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))    # workloads imports tracing
    workloads = _perfbench("workloads")
    data, cfg = small_dataset(n=60, d=3, seed=54), FitConfig(baseline=baseline)
    res = workloads.OpResult(0.0, False, {}, [],
                             fit_calls=[((data, cfg), fit_unpenalized(data, cfg))])
    assert workloads.fit_problems(res) == []


def test_ci_runs_tier1():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    runs = [step.get("run", "") for step in steps]
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`", roadmap).group(1)
    assert tier1 in runs
    assert "python3 perfbench/selftest.py" in runs
    # every benchmark workload's answers are checked against seed 0's stored
    # references, in a bash step, whose pipefail fails on a failed run
    gate = [step for step in steps if "perfbench/run.py" in step.get("run", "")]
    assert [step.get("shell") for step in gate] == ["bash"]
    lines = gate[0]["run"].splitlines()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in benchmark["workloads"]:
        assert (f"python3 perfbench/run.py --workload {workload['name']} --seed 0 "
                "--seconds 3 | tail -n 1 | grep -F '\"correct\": true'") in lines
    job_env = [job.get("env", {}) for job in workflow["jobs"].values()]
    assert all(env.get("OPENBLAS_NUM_THREADS") == "1" for env in job_env)
    # the test tools are pinned too: an upgrade of one can fail tier-1 on
    # its own, as an import inside Hypothesis once did
    install = next(r for r in runs if "pip install" in r).split()
    for pin in ("numpy==2.4.6", "scipy==1.17.1", "pytest==9.0.3", "hypothesis==6.155.2",
                "pyyaml==6.0.3"):
        assert pin in install


def test_ci_jobs_have_a_time_limit():
    # GitHub's default is 6 hours: a hung process pool or Hypothesis search
    # would hold a runner that long
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    limits = [job.get("timeout-minutes") for job in workflow["jobs"].values()]
    assert all(isinstance(m, int) and 10 <= m <= 60 for m in limits), limits


def test_ci_pins_lie_in_the_declared_ranges():
    # scrbar calls SciPy's private compiled L-BFGS-B and LAPACK modules
    # (scrbar._compiled), so pyproject.toml admits only the SciPy releases
    # CI has run the contract tests on
    yaml = pytest.importorskip("yaml")
    tomllib = pytest.importorskip("tomllib")
    from packaging.requirements import Requirement
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    runs = [step.get("run", "") for job in workflow["jobs"].values() for step in job["steps"]]
    install = next(r for r in runs if "pip install" in r).split()
    pins = dict(arg.split("==") for arg in install if "==" in arg)
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    ranges = {req.name: req.specifier for req in map(Requirement, project["dependencies"])}
    assert set(ranges) == {"numpy", "scipy"}
    for name, specifier in ranges.items():
        assert specifier.contains(pins[name]), (name, pins[name], str(specifier))
    assert not ranges["scipy"].contains("1.18.0")
