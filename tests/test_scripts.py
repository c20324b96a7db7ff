"""Smoke runs of the scripts, with tiny ensembles for the studies."""

import importlib.util
import os
import shutil
import subprocess
import sys

import pytest

from jarlskog.cli import main
from jarlskog.verify import TRIAL_CHUNK

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


@pytest.mark.parametrize(("name", "option"), (("reconcile_closed_form.py", "--trials"),
                                              ("haar_sampling_study.py", "--samples")))
@pytest.mark.parametrize("count", ("0", "-3"))
def test_study_scripts_reject_counts_below_one(name, option, count):
    res = subprocess.run([sys.executable, os.path.join(SCRIPTS, name), option, count],
                         capture_output=True, text=True)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("usage: ")
    assert res.stderr.splitlines()[-1].endswith(f"error: {option} must be >= 1")


def load_byte_identity():
    spec = importlib.util.spec_from_file_location("byte_identity",
                                                  os.path.join(SCRIPTS, "byte_identity.py"))
    byte_identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(byte_identity)
    return byte_identity


def test_byte_identity_runs_verify_on_the_trial_chunk_and_one_past_it(tmp_path):
    argvs = load_byte_identity().commands(str(tmp_path))
    for n in (3, 4):
        for trials in (TRIAL_CHUNK, TRIAL_CHUNK + 1):
            assert ["verify", "--n", str(n), "--trials", str(trials), "--seed", "0"] in argvs


#: the message that each U/U_prime error file of byte_identity.py must give
PAIR_FAULT_MESSAGES = {
    "u_not_unitary": "field 'U': matrix is not unitary: ",
    "u_prime_nan": "field 'U_prime': matrix entries must be finite",
    "v_not_unitary": "the product V = U^+ U_prime: matrix is not unitary: ",
    "u_prime_overflow": "field 'U_prime': matrix is not unitary: max|V V+ - I| = inf > 1e-10",
}


def test_byte_identity_runs_the_u_form_faults_at_n3_and_n4(tmp_path, capsys):
    # each U/U_prime file of the matrix reaches the fault it is named for,
    # through both det and phases
    byte_identity = load_byte_identity()
    tmp = str(tmp_path)
    byte_identity.error_files(os.path.join(os.path.dirname(SCRIPTS), "src"), tmp)
    argvs = byte_identity.commands(tmp)
    assert list(byte_identity.PAIR_FAULTS) == list(PAIR_FAULT_MESSAGES)
    for n in (3, 4):
        for fault, message in PAIR_FAULT_MESSAGES.items():
            path = os.path.join(tmp, f"{fault}{n}.json")
            for command in ("det", "phases"):
                assert [command, path] in argvs
                assert main([command, path]) == 1
                out, err = capsys.readouterr()
                assert out == ""
                assert err.startswith(f"error: {message}") and err.count("\n") == 1


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


def test_ab_ops_times_a_tree_against_itself_and_refuses_a_changed_report(tmp_path):
    src = os.path.join(os.path.dirname(SCRIPTS), "src")
    lines = run_script("ab_ops.py", src, src, "--rounds", "1", "--ops", "2")
    assert lines[0] == "outputs: 2 ops per workload, identical"
    assert lines[1].startswith("round 1: verify-n4 p5 ")
    assert [line.split(":")[0] for line in lines[2:]] == ["verify-n4", "verify-n3", "problems-cli"]
    changed = tmp_path / "src"
    shutil.copytree(src, changed, ignore=shutil.ignore_patterns("__pycache__"))
    path = changed / "jarlskog" / "verify.py"
    text = path.read_text(encoding="utf-8")
    assert text.count("PARITY_ABS = 1e-12\n") == 1
    path.write_text(text.replace("PARITY_ABS = 1e-12\n", "PARITY_ABS = 2e-12\n"), encoding="utf-8")
    res = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "ab_ops.py"), src, str(changed),
         "--rounds", "1", "--ops", "2"],
        capture_output=True,
        text=True,
    )
    # it names the differing ops, times the trees anyway, then exits 1
    assert res.returncode == 1, res.stderr
    lines = res.stdout.splitlines()
    differs = [f"differs: verify-{n} seed {s}" for n in ("n4", "n3") for s in (0, 1)]
    assert lines[:5] == differs + ["outputs: 2 ops per workload, 4 differing"]
    assert lines[5].startswith("round 1: verify-n4 p5 ")
    assert [line.split(":")[0] for line in lines[6:]] == ["verify-n4", "verify-n3", "problems-cli"]
