"""Smoke tests: every shipped example runs to completion.

Examples are part of the public surface; a refactor that breaks one
should fail the suite, not a user.  Heavy examples are shrunk via their
module-level constants before ``main()`` runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from multiway.__main__ import main as multiway_main

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        output = capsys.readouterr().out
        assert "new Smith paper" in output
        assert "overlay traffic" in output

    def test_elearning_monitor(self, capsys):
        load_example("elearning_monitor").main()
        output = capsys.readouterr().out
        assert "reconnects under the same key" in output
        assert "missed notifications recovered on rejoin: 2" in output

    def test_stream_join_monitor(self, capsys):
        load_example("stream_join_monitor").main()
        output = capsys.readouterr().out
        assert "alerts over" in output
        assert "window keeps it bounded" in output

    def test_churn_tolerance(self, capsys):
        load_example("churn_tolerance").main()
        output = capsys.readouterr().out
        assert "result sets match exactly despite churn" in output

    def test_chaos_crash_recovery(self, capsys):
        load_example("chaos_crash_recovery").main()
        output = capsys.readouterr().out
        assert "crashed" in output
        assert "duplicate notifications: 0" in output
        assert "exact convergence despite loss, delay and crashes" in output

    def test_algorithm_faceoff_shrunk(self, capsys):
        module = load_example("algorithm_faceoff")
        from repro.bench.configs import Scale

        module.SCALE = Scale(
            "test-faceoff", n_nodes=48, n_queries=40, n_tuples=120, domain_size=40
        )
        module.main()
        output = capsys.readouterr().out
        assert output.count("yes") >= 4  # all four deliver the same rows
        assert "dai-v" in output

    def test_multiway_pipeline(self, capsys):
        multiway_main()
        output = capsys.readouterr().out
        assert "pipeline installed" in output
        assert "stage 2" in output
        assert "assignments found" in output

    def test_expdb_sweep_shrunk(self, capsys):
        module = load_example("expdb_sweep")
        from repro.expdb import GridSpec

        module.GRID = GridSpec(
            algorithms=("sai", "dai-v"),
            n_nodes=(16,),
            zipf_s=(0.6, 1.2),
            n_queries=(12,),
            n_tuples=(30,),
            domain_sizes=(12,),
            seeds=(1,),
        )
        module.main()
        output = capsys.readouterr().out
        assert "filled 4 experiments" in output
        assert "both workers drained" in output
        assert "mean_hops" in output

    def test_live_cluster_shrunk(self, capsys):
        module = load_example("live_cluster")
        module.N_NODES = 4
        module.N_QUERIES = 5
        module.N_TUPLES = 20
        module.main()
        output = capsys.readouterr().out
        assert "on the wire" in output
        assert "delivered identical notification sets" in output
