"""Each command imports only what it runs.

Only live HTTP needs requests and only plan files need PyYAML, so grading,
reports, stats and offline (oracle and replay) batches must run without
either. Each call below runs in a fresh interpreter twice: once with a
finder on `sys.meta_path` that refuses to import requests and yaml, and
once without it. Both runs must succeed with the same output, and the
modules the unblocked run added to a bare interpreter's `sys.modules` must
include none of the live-only packages. Comparing with a bare interpreter,
rather than with the module list at start-up, keeps modules that the
interpreter's `site` already loaded (a `.pth` file may import `certifi`)
from counting as the call's own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"

# Runs argv[2] (code that sets `result`) with stdout and stderr captured,
# and prints the outcome and sys.modules as JSON.
CHILD = """
import contextlib, io, json, sys

if sys.argv[1] == "blocked":
    class Refuse:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] in ("requests", "yaml"):
                raise ModuleNotFoundError(f"import of {name} refused", name=name)
            return None

    sys.meta_path.insert(0, Refuse())
scope = {}
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    exec(sys.argv[2], scope)
print(json.dumps({
    "result": scope["result"],
    "stdout": out.getvalue(),
    "stderr": err.getvalue(),
    "modules": sorted(sys.modules),
}))
"""

# The packages only live HTTP or plan files need, and the thread pool only
# a batch on more than one worker needs.
LIVE_ONLY = {"requests", "urllib3", "charset_normalizer", "idna", "certifi", "yaml", "concurrent"}

RECORDS = FIXTURES / "oracle" / "deviator.jsonl"
BATCH = "[{k: v for k, v in r.items() if k != 'elapsed_seconds'} for r in batch.records]"


def _cli(*args: str) -> str:
    return f"from ultimatum.cli import main\nresult = main({[str(a) for a in args]!r})"


# plan_from_dict, not load_plan: reading a plan file is what needs PyYAML.
REPLAY_PLAN = yaml.safe_load((FIXTURES / "replay" / "plan.yaml").read_text(encoding="utf-8"))
REPLAY_BATCH = (
    "from ultimatum.agents import ReplayGateway\n"
    "from ultimatum.experiment import plan_from_dict, run_batch\n"
    f"gateway = ReplayGateway({str(FIXTURES / 'replay' / 'recording.jsonl')!r})\n"
    f"batch = run_batch(plan_from_dict({REPLAY_PLAN!r}), mode='replay', gateway=gateway, keep_prompts=True)\n"
    f"result = {BATCH}"
)

ORACLE_BATCH = (
    "from ultimatum.experiment import plan_from_dict, run_batch\n"
    "plan = plan_from_dict({'runs_per_cell': 2, 'pot': 37, 'rounds': 3, 'flaws': {'proposer': 'deviator'}})\n"
    "batch = run_batch(plan, max_workers=1)\n"
    f"result = {BATCH}"
)

# A session error that is not one of requests' fails at once, with no
# retry and no sleep, whether or not requests can be imported.
GATEWAY_ERRORS = """
from ultimatum.agents import HttpGateway, SamplingParams

class Session:
    def __init__(self, error):
        self.error = error

    def post(self, url, json=None, headers=None, timeout=None):
        raise self.error

result = []
for error in (RuntimeError("session bug"), ConnectionResetError("reset")):
    sleeps = []
    gateway = HttpGateway("http://example.invalid/v1", session=Session(error), sleep=sleeps.append)
    try:
        gateway.complete("m", [("user", "hi")], SamplingParams())
    except Exception as exc:
        result.append([repr(exc), exc is error, gateway.retries, sleeps])
"""

CALLS = {
    "grade --records": _cli("grade", "--records", RECORDS),
    "report markdown": _cli("report", "--records", RECORDS),
    "report csv": _cli("report", "--records", RECORDS, "--format", "csv"),
    "stats chi2": _cli("stats", "chi2", "35", "40", "20", "40"),
    "grade --single-log": _cli(
        "grade", "--single-log", FIXTURES / "fig_single_model_fair_fair.txt", "--pair", "fair-fair"
    ),
    "oracle batch": ORACLE_BATCH,
    "replay batch": REPLAY_BATCH,
    "gateway errors": GATEWAY_ERRORS,
}

# The calls that render no prompt, and so need no package resources.
NO_PROMPTS = {"grade --records", "report markdown", "report csv", "stats chi2", "grade --single-log"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    out = subprocess.run(
        [sys.executable, "-c", "import sys; print(' '.join(sys.modules))"],
        env=_env(), capture_output=True, text=True, check=True,
    )
    return set(out.stdout.split())


@pytest.mark.parametrize("name", CALLS)
def test_a_call_runs_without_the_live_only_packages(name, bare_modules):
    children = {
        mode: subprocess.Popen(
            [sys.executable, "-c", CHILD, mode, CALLS[name]],
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for mode in ("blocked", "open")
    }
    finished = {mode: (*child.communicate(timeout=120), child.returncode) for mode, child in children.items()}
    for mode, (stdout, stderr, status) in finished.items():
        assert status == 0, f"{mode}: {stderr}"
    blocked, opened = (json.loads(finished[mode][0]) for mode in ("blocked", "open"))

    result = blocked["result"]
    if name == "gateway errors":
        assert result == [
            ["RuntimeError('session bug')", True, 0, []],
            ["ConnectionResetError('reset')", True, 0, []],
        ]
    elif name.endswith("batch"):
        assert result and all(r["status"] == "ok" for r in result)
    else:
        assert result == 0, blocked["stderr"]
    added = set(opened.pop("modules")) - bare_modules
    del blocked["modules"]
    assert blocked == opened
    assert sorted(m for m in added if m.partition(".")[0] in LIVE_ONLY) == []
    if name in NO_PROMPTS:
        assert sorted(m for m in added if m.startswith("importlib.resources")) == []
