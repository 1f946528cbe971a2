"""End-to-end CLI behavior: exit codes, outputs, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from geomerge import diagnostics
from geomerge.cli import main
from geomerge.tensor_io import TensorRecord, write_checkpoint
from oracles import covariance_spectrum_direct, read_records


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(90)
    shapes = {"w0": (4, 6), "w1": (6, 3)}
    for tag in ("a", "b"):
        records = [
            TensorRecord(n, rng.standard_normal(s).astype(np.float32)) for n, s in shapes.items()
        ]
        write_checkpoint(tmp_path / f"{tag}.st", records)
    return tmp_path


def _recipe(tmp_path, method="karcher", extra=""):
    text = f"""
method: {method}
models:
  - path: {tmp_path / 'a.st'}
  - path: {tmp_path / 'b.st'}
output:
  path: {tmp_path / 'merged.st'}
{extra}"""
    path = tmp_path / "recipe.yaml"
    path.write_text(text)
    return path


class TestMerge:
    def test_valid_job_exit_zero_and_outputs_exist(self, workspace, capsys):
        rc = main(["merge", str(_recipe(workspace))])
        assert rc == 0
        assert (workspace / "merged.st").exists()
        assert (workspace / "merged.st.summary.json").exists()
        assert "merged 2 tensors" in capsys.readouterr().out

    def test_missing_model_file_exit_2_names_path(self, workspace, capsys):
        recipe = workspace / "r.yaml"
        recipe.write_text(
            f"method: lerp\nmodels: [{workspace/'a.st'}, {workspace/'ghost.st'}]\n"
            f"output: {{path: {workspace/'m.st'}}}\n"
        )
        rc = main(["merge", str(recipe)])
        assert rc == 2
        assert "ghost.st" in capsys.readouterr().err

    def test_bad_recipe_exit_1(self, workspace, capsys):
        recipe = workspace / "r.yaml"
        recipe.write_text("method: slerp\nmodels: [a, b, c]\noutput: {path: m.st}\n")
        rc = main(["merge", str(recipe)])
        assert rc == 1
        assert "slerp requires exactly 2 models" in capsys.readouterr().err

    def test_numeric_failure_exit_3(self, workspace, capsys):
        # NaN tensors (shapes matching the workspace checkpoints) under strict
        # finiteness
        write_checkpoint(
            workspace / "nan.st",
            [
                TensorRecord("w0", np.full((4, 6), np.nan, dtype=np.float32)),
                TensorRecord("w1", np.full((6, 3), np.nan, dtype=np.float32)),
            ],
        )
        recipe = workspace / "r.yaml"
        recipe.write_text(
            f"method: lerp\nmodels: [{workspace/'a.st'}, {workspace/'nan.st'}]\n"
            f"output: {{path: {workspace/'m.st'}}}\nparameters: {{strict: false}}\n"
        )
        # misaligned shapes are tolerated permissively, but NaN still fails the load
        rc = main(["merge", str(recipe)])
        assert rc == 0  # permissive: NaN tensors skipped with fallback copies

        recipe.write_text(
            f"method: lerp\nmodels: [{workspace/'a.st'}, {workspace/'nan.st'}]\n"
            f"output: {{path: {workspace/'m.st'}}}\n"
        )
        rc = main(["merge", str(recipe)])
        assert rc == 3
        assert "NaN" in capsys.readouterr().err

    def test_tight_tol_merges(self, workspace):
        # with three sources the tangent mean reaches its rounding floor near tol
        rng = np.random.default_rng(93)
        write_checkpoint(
            workspace / "c.st",
            [
                TensorRecord("w0", rng.standard_normal((4, 6)).astype(np.float32)),
                TensorRecord("w1", rng.standard_normal((6, 3)).astype(np.float32)),
            ],
        )
        recipe = workspace / "r.yaml"
        recipe.write_text(
            f"method: karcher\nmodels: [{workspace/'a.st'}, {workspace/'b.st'}, {workspace/'c.st'}]\n"
            f"output: {{path: {workspace/'m.st'}}}\nparameters: {{tol: 1.0e-12}}\n"
        )
        assert main(["merge", str(recipe)]) == 0
        summary = json.loads((workspace / "m.st.summary.json").read_text())
        assert all(t["converged"] for t in summary["per_tensor"])

    def test_strict_failure_of_multi_argument_exception_exit_3(self, workspace, capsys, monkeypatch):
        from geomerge import merge_methods

        def broken(tensors, weights, **kw):
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        monkeypatch.setattr(merge_methods, "merge_lerp", broken)
        rc = main(["merge", str(_recipe(workspace, method="lerp")), "--threads", "1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "invalid start byte" in err
        assert "tensor 'w0'" in err

    def test_override_seed_echoed_in_summary(self, workspace):
        recipe = _recipe(workspace, method="dare_lerp", extra=f"base_model: {workspace/'a.st'}\n")
        rc = main(["merge", str(recipe), "--set", "parameters.seed=7"])
        assert rc == 0
        summary = json.loads((workspace / "merged.st.summary.json").read_text())
        assert summary["parameters"]["seed"] == 7

    def test_summary_schema(self, workspace):
        main(["merge", str(_recipe(workspace))])
        summary = json.loads((workspace / "merged.st.summary.json").read_text())
        assert summary["method"] == "karcher"
        assert summary["tensors_merged"] == 2
        assert summary["tensors_skipped"] == []
        entry = summary["per_tensor"][0]
        assert set(entry) == {"name", "iterations", "residual", "converged", "norm_in", "norm_out"}
        assert "wall_ms" in summary

    def test_threads_do_not_change_output_bytes(self, workspace):
        recipe = _recipe(
            workspace,
            method="dare_ties",
            extra=f"base_model: {workspace/'a.st'}\nparameters: {{seed: 3}}\n",
        )
        main(["merge", str(recipe), "--threads", "1"])
        first = (workspace / "merged.st").read_bytes()
        main(["merge", str(recipe), "--threads", "8"])
        assert (workspace / "merged.st").read_bytes() == first

    def test_precision_flag_accepted(self, workspace):
        rc = main(["merge", str(_recipe(workspace)), "--precision", "f64"])
        assert rc == 0


class TestDiagnose:
    def _activations(self, tmp_path, n_layers=3):
        rng = np.random.default_rng(91)
        records = [
            TensorRecord(f"layer_{k}", rng.standard_normal((16, 5))) for k in range(n_layers)
        ]
        path = tmp_path / "acts.st"
        write_checkpoint(path, records, output_dtype="f64")
        return path

    def test_layer_count_in_report(self, tmp_path, capsys):
        path = self._activations(tmp_path, n_layers=3)
        out = tmp_path / "report.json"
        rc = main(["diagnose", str(path), "--out", str(out), "--draws", "4"])
        assert rc == 0
        report = json.loads(out.read_text())
        assert len(report["layers"]) == 3
        assert report["draws"] == 4

    def test_single_draw_zero_std(self, tmp_path):
        path = self._activations(tmp_path)
        out = tmp_path / "report.json"
        main(["diagnose", str(path), "--out", str(out), "--draws", "1"])
        report = json.loads(out.read_text())
        for layer in report["layers"]:
            for metric in layer["metrics"].values():
                assert metric["std"] == 0.0

    def test_same_seed_byte_identical(self, tmp_path):
        path = self._activations(tmp_path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["diagnose", str(path), "--out", str(out1), "--seed", "5"])
        main(["diagnose", str(path), "--out", str(out2), "--seed", "5"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_rows(self, tmp_path):
        path = self._activations(tmp_path, n_layers=2)
        out = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        main(["diagnose", str(path), "--out", str(out), "--csv", str(csv_path), "--draws", "2"])
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "layer,metric,mean,std"
        assert len(lines) == 1 + 2 * 5

    def test_bad_layer_names_exit_1(self, tmp_path, capsys):
        write_checkpoint(
            tmp_path / "acts.st", [TensorRecord("weird", np.ones((4, 2)))], "f64"
        )
        rc = main(["diagnose", str(tmp_path / "acts.st"), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "layer_<k>" in capsys.readouterr().err

    def test_toy_forward_pipeline(self, tmp_path):
        rng = np.random.default_rng(92)
        write_checkpoint(
            tmp_path / "weights.st",
            [
                TensorRecord("fc1.weight", rng.standard_normal((6, 8)).astype(np.float32)),
                TensorRecord("fc1.bias", rng.standard_normal(8).astype(np.float32)),
                TensorRecord("fc2.weight", rng.standard_normal((8, 4)).astype(np.float32)),
            ],
        )
        spec = tmp_path / "toy.yaml"
        spec.write_text(
            "nonlinearity: relu\nsamples: 32\nseed: 1\n"
            "layers:\n  - {weight: fc1.weight, bias: fc1.bias}\n  - {weight: fc2.weight}\n"
        )
        out = tmp_path / "report.json"
        rc = main(
            ["diagnose", str(tmp_path / "weights.st"), "--toy-forward", str(spec),
             "--out", str(out), "--draws", "3"]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert [l["layer"] for l in report["layers"]] == ["layer_0", "layer_1", "layer_2"]

    def test_toy_forward_unknown_key_exit_1(self, tmp_path, capsys):
        write_checkpoint(tmp_path / "w.st", [TensorRecord("w", np.ones((2, 2)))])
        spec = tmp_path / "toy.yaml"
        spec.write_text("nonlinearty: relu\nlayers: [{weight: w}]\n")
        rc = main(["diagnose", str(tmp_path / "w.st"), "--toy-forward", str(spec),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "nonlinearty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "layers,key,shown",
        [
            ("[nope]", "weight", "'nope'"),
            ("[{weight: w, bias: nope}]", "bias", "'nope'"),
            ("[{weight: [w]}]", "weight", "['w']"),
            ("[{weight: w, bias: 3}]", "bias", "3"),
        ],
        ids=["missing-weight", "missing-bias", "list-weight", "int-bias"],
    )
    def test_toy_forward_bad_tensor_name_exit_1(self, tmp_path, capsys, layers, key, shown):
        weights = tmp_path / "w.st"
        write_checkpoint(weights, [TensorRecord("w", np.ones((2, 2)))])
        spec = tmp_path / "toy.yaml"
        spec.write_text(f"layers: {layers}\n")
        rc = main(["diagnose", str(weights), "--toy-forward", str(spec),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {spec}: layers[0] {key} {shown} is not a tensor in {weights}\n"
        )
        assert not (tmp_path / "o.json").exists()

    def test_zero_feature_layer_exit_3_names_layer(self, tmp_path, capsys):
        write_checkpoint(
            tmp_path / "acts.st",
            [TensorRecord("layer_0", np.ones((4, 3))), TensorRecord("layer_1", np.ones((4, 0)))],
            "f64",
        )
        rc = main(["diagnose", str(tmp_path / "acts.st"), "--out", str(tmp_path / "o.json")])
        assert rc == 3
        assert "'layer_1'" in capsys.readouterr().err

    def test_toy_forward_wide_layers_match_direct_spectrum(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(93)
        write_checkpoint(
            tmp_path / "weights.st",
            [
                TensorRecord("fc1.weight", rng.standard_normal((48, 64)) / 7.0),
                TensorRecord("fc2.weight", rng.standard_normal((64, 64)) / 8.0),
            ],
        )
        spec = tmp_path / "toy.yaml"
        spec.write_text(
            "nonlinearity: tanh\nsamples: 24\nseed: 3\nlayers: [fc1.weight, fc2.weight]\n"
        )
        args = ["diagnose", str(tmp_path / "weights.st"), "--toy-forward", str(spec), "--draws", "6"]
        assert main(args + ["--out", str(tmp_path / "gram.json")]) == 0
        monkeypatch.setattr(diagnostics, "covariance_spectrum", covariance_spectrum_direct)
        assert main(args + ["--out", str(tmp_path / "direct.json")]) == 0
        got = json.loads((tmp_path / "gram.json").read_text())
        want = json.loads((tmp_path / "direct.json").read_text())
        assert [l["features"] for l in got["layers"]] == [48, 64, 64]
        for got_layer, want_layer in zip(got["layers"], want["layers"]):
            assert got_layer["metrics"].keys() == want_layer["metrics"].keys()
            for metric, want_entry in want_layer["metrics"].items():
                got_entry = got_layer["metrics"][metric]
                if metric == "num_rank":
                    assert got_entry == want_entry
                else:
                    for key in ("mean", "std"):
                        np.testing.assert_allclose(
                            got_entry[key], want_entry[key], rtol=1e-12, atol=0.0
                        )


class TestInspect:
    def test_row_per_tensor(self, workspace, capsys):
        rc = main(["inspect", str(workspace / "a.st")])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3  # header + two tensors
        assert out[1].startswith("w0")

    def test_json_output_parses_and_norm_matches(self, workspace, capsys):
        rc = main(["inspect", str(workspace / "a.st"), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        names = [t["name"] for t in payload["tensors"]]
        assert names == ["w0", "w1"]
        ck = read_records(workspace / "a.st", precision="f64")
        for entry in payload["tensors"]:
            expected = float(np.linalg.norm(ck[entry["name"]].data))
            assert abs(entry["norm"] - expected) <= 1e-6 * max(expected, 1.0)

    def test_missing_checkpoint_exit_2(self, tmp_path, capsys):
        rc = main(["inspect", str(tmp_path / "none.st")])
        assert rc == 2
