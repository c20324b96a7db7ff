"""The benchmark's traced layers must all name functions that exist, and
the code paths that the benchmark runs must reach them.

perfbench/tracing.py reports a layer whose function has gone as absent
instead of failing, so a rename would silently empty a benchmark metric; a
layer that no traced path calls reads zero calls instead.
"""

import importlib.util
import os

import pytest

from jarlskog import cli, verify

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("layer", tracing.LAYERS)
def test_traced_layer_resolves(layer):
    assert tracing._resolve(layer) is not None


#: calls per run_suite op of the layers that verify reaches through the
#: stacked kernels, at every n and at each n only.  One chunk runs each
#: layer once on its stack, so a layer rerouted around its traced name reads
#: fewer calls; phase_table takes re and im of V and of its rephased copy.
VERIFY_LAYERS = {"sampling.rephase": 1, "phases.phase_table": 4,
                 "phases.unitary_relation_residuals": 1,
                 "phases.nonlinear_relation_residuals": 1}
VERIFY_N_LAYERS = {3: {"phases.n3_phase_table": 1},
                   4: {"determinant.t_factors": 1, "phases.jr_matrices": 1,
                       "phases.expand_phases": 1}}


@pytest.mark.parametrize(("n", "trials"), ((4, 4), (3, 8)))
def test_traced_verify_sees_the_stacked_layers_and_keeps_its_bytes(n, trials):
    master_seed = 29
    plain = verify.run_suite(n, trials, master_seed).render()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = verify.run_suite(n, trials, master_seed).render()
    calls = tracer.layer_metrics(1)
    expected = VERIFY_LAYERS | VERIFY_N_LAYERS[n]
    assert {layer: calls[f"{layer}.calls_per_op"][0] for layer in expected} == expected
    assert traced == plain


#: the problem file of each n with a closed form
DET_PROBLEMS = {3: "problem_n3_seed501.json", 4: "problem_n4_seed2024.json"}


@pytest.mark.parametrize("n", DET_PROBLEMS)
def test_traced_det_reaches_the_closed_form_of_its_n(n, capsys):
    # det looks its closed form up when it runs, so the tracer's rebinding
    # of det3_closed and det4_closed is on the path
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["det", os.path.join(DATA, DET_PROBLEMS[n]), "--method", "both"]) == 0
    capsys.readouterr()
    calls = tracer.layer_metrics(1)
    expected = {"determinant.det_direct": 1, "linalg.det": 1,
                "determinant.det3_closed": int(n == 3), "determinant.det4_closed": int(n == 4)}
    assert {layer: calls[f"{layer}.calls_per_op"][0] for layer in expected} == expected


def test_traced_phases_report_defines_the_gate_pass_ratio(capsys):
    problem = os.path.join(DATA, "problem_n4_seed2024.json")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["phases", problem]) == 0
    capsys.readouterr()
    assert tracer.layer_metrics(1)[tracing.GATE_PASS_RATIO][0] is not None


@pytest.mark.parametrize("argv", (["det", "--method", "both"], ["phases"]), ids=("det", "phases"))
def test_traced_u_form_problem_builds_one_unitary_matrix_and_keeps_its_bytes(argv, capsys):
    # U and U_prime are validated as one stack; only V = U^+ U_prime is
    # wrapped as a UnitaryMatrix
    problem = os.path.join(DATA, "problem_n4_uu_seed602.json")
    assert cli.main([*argv[:1], problem, *argv[1:]]) == 0
    plain = capsys.readouterr().out
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main([*argv[:1], problem, *argv[1:]]) == 0
    assert capsys.readouterr().out == plain
    assert tracer.layer_metrics(1)["linalg.UnitaryMatrix.__post_init__.calls_per_op"][0] == 1
