"""Every output of the benchmark's calls is byte for byte its stored reference.

``bench/reference.json`` holds the SHA-256 and the checked facts of the output
of each of the 305 calls the three benchmark workloads make. This runs every
one of them in process, as the benchmark does, and three of them again in a
fresh interpreter under another PYTHONHASHSEED, so that no string hash or
object address (the sweep grid groups rows by id(corner)) reaches an output.
``bench/workloads.py`` is loaded read-only.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "bench" / "workloads.py"
# A calibrated Monte Carlo, a temperature compare sweep and a calibration.
CROSS_PROCESS = ("mc/trials=500/seed=1001", "sweep/temp/0", "calibrate/trial=3")


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


def test_every_call_matches_the_reference(tmp_path, monkeypatch):
    reference = workloads.load_reference()
    errors, ran = [], 0
    for workload in workloads.WORKLOADS:
        workdir = tmp_path / workload
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        workloads.prepare(workload, workdir)
        for call in workloads.all_calls(workload):
            rc, err = workloads.run_call(call.argv)
            assert rc == 0, f"{call.key}: {rc} {err}"
            got, ref = workloads.facts(call, workdir), reference[call.key]
            errors += [f"{call.key}: {e}" for e in workloads.compare(got, ref)]
            if "sha256" in got and got["sha256"] != ref.get("sha256"):
                errors.append(f"{call.key}: bytes differ from the reference")
            ran += 1
    assert (ran, errors) == (len(reference), [])


def test_outputs_do_not_depend_on_the_process(tmp_path, monkeypatch):
    calls = {c.key: c for w in workloads.WORKLOADS for c in workloads.all_calls(w)}
    picked = [calls[key] for key in CROSS_PROCESS]
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    there.mkdir()
    monkeypatch.chdir(here)
    for call in picked:
        assert workloads.run_call(call.argv)[0] == 0
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    script = ("import json, sys\nfrom dyncomp.cli import main\n"
              "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n")
    subprocess.run([sys.executable, "-c", script, json.dumps([c.argv for c in picked])],
                   cwd=there, env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                   check=True, capture_output=True)
    for call in picked:
        assert (there / call.out).read_bytes() == (here / call.out).read_bytes(), call.key
