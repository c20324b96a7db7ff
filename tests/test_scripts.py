"""Smoke runs of the scripts, with tiny ensembles for the studies."""

import os
import shutil
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name, *args):
    res = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


def test_reconcile_closed_form_summary():
    lines = run_script("reconcile_closed_form.py", "--trials", "5")
    assert "over 5 trials:" in lines
    summary = {
        line.split(":")[0].strip(): float(line.split(":")[1])
        for line in lines[lines.index("over 5 trials:") + 1:][:3]
    }
    assert summary["closed form vs direct, worst relative error"] <= 1e-9
    assert summary["largest imaginary part of the raw cycle sums"] > 1e-9
    assert summary["worst error if cycle groups kept raw complex values"] > 1e-9
    assert lines[-1] == "complex sums would be wrong by many orders of magnitude."


def test_haar_sampling_study_summary():
    lines = run_script("haar_sampling_study.py", "--samples", "20")
    assert lines[0] == "first-entry moment E|V11|^2 (target 1/n):"
    assert [line.split(":")[0].strip() for line in lines[1:5]] == [
        "n=2", "n=3", "n=4", "n=5"
    ]
    assert lines[-2].startswith("  with phase correction   : R = ")
    assert lines[-1].startswith("  without phase correction: R = ")


def test_byte_identity_names_a_changed_verify_report(tmp_path):
    src = os.path.join(os.path.dirname(SCRIPTS), "src")
    changed = tmp_path / "src"
    shutil.copytree(src, changed, ignore=shutil.ignore_patterns("__pycache__"))
    path = changed / "jarlskog" / "verify.py"
    text = path.read_text(encoding="utf-8")
    for old, new in (("PARITY_ABS = 1e-12\n", "PARITY_ABS = 2e-12\n"),
                     ('"trials must be >= 1"', '"trials must be positive"')):
        assert text.count(old) == 1
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")
    res = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "byte_identity.py"), src, str(changed)],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 1, res.stderr
    lines = res.stdout.splitlines()
    assert "differs (stdout): jarlskog verify --n 4 --trials 4 --seed 0" in lines
    assert "differs (stderr): jarlskog verify --trials 0" in lines
