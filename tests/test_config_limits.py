"""Config errors for worker counts and non-finite recipe numbers."""

from __future__ import annotations

import numpy as np
import pytest

from geomerge.cli import main
from geomerge.errors import ConfigError
from geomerge.merge_methods import MergeJob, MergeMethod
from geomerge.recipe import parse_recipe
from geomerge.tensor_io import TensorRecord, write_checkpoint

NUMERIC_KEYS = ("t", "density", "drop_rate", "window", "lambda", "eta", "tol")
LERP = "method: lerp\nmodels: [a.st, b.st]\noutput: {path: o.st}\n"


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(95)
    for tag in ("a", "b", "base"):
        data = rng.standard_normal((3, 5)).astype(np.float32)
        write_checkpoint(tmp_path / f"{tag}.st", [TensorRecord("w", data)])
    return tmp_path


def _recipe(tmp_path, method="lerp"):
    path = tmp_path / "recipe.yaml"
    path.write_text(
        f"method: {method}\n"
        f"base_model: {tmp_path / 'base.st'}\n"
        f"models: [{tmp_path / 'a.st'}, {tmp_path / 'b.st'}]\n"
        f"output: {{path: {tmp_path / 'merged.st'}}}\n"
    )
    return path


class TestThreads:
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_cli_rejects_threads_below_one(self, workspace, capsys, threads):
        rc = main(["merge", str(_recipe(workspace)), "--threads", threads])
        assert rc == 1
        assert "--threads" in capsys.readouterr().err
        assert not (workspace / "merged.st").exists()

    @pytest.mark.parametrize("threads", [0, -1])
    def test_merge_job_rejects_threads_below_one(self, threads):
        with pytest.raises(ConfigError, match="threads"):
            MergeJob(sources=[], method=MergeMethod("lerp"), out_path="o.st", threads=threads)

    @pytest.mark.parametrize("threads", [None, 1, 3])
    def test_merge_job_accepts_default_and_positive_threads(self, threads):
        job = MergeJob(sources=[], method=MergeMethod("lerp"), out_path="o.st", threads=threads)
        assert job.threads == threads

    def test_cli_one_thread_still_merges(self, workspace):
        assert main(["merge", str(_recipe(workspace)), "--threads", "1"]) == 0


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_every_numeric_key_rejects_non_finite(self, key, value):
        text = LERP + f"parameters: {{{key}: {value}}}\n"
        with pytest.raises(ConfigError, match=rf"parameters\.{key} must be a finite number"):
            parse_recipe(text)

    def test_integer_beyond_float_range_rejected(self):
        text = LERP + f"parameters: {{lambda: {10**400}}}\n"
        with pytest.raises(ConfigError, match=r"parameters\.lambda must be a finite number"):
            parse_recipe(text)

    def test_finite_values_still_accepted(self):
        recipe = parse_recipe(LERP + "parameters: {lambda: -2.5, tol: 1.0e-300}\n")
        assert recipe.method.param("lambda") == -2.5
        assert recipe.method.param("tol") == 1e-300

    @pytest.mark.parametrize(
        "method,override",
        [("task_arithmetic", "parameters.lambda=.nan"), ("ties", "parameters.density=.nan")],
    )
    def test_cli_exits_1_before_merging(self, workspace, capsys, method, override):
        rc = main(["merge", str(_recipe(workspace, method)), "--set", override])
        assert rc == 1
        assert override.split("=")[0] in capsys.readouterr().err
        assert not (workspace / "merged.st").exists()
