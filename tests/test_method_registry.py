"""The method registry: parameter checks in ``MergeMethod``, the summary's
effective parameters, DARE's drop-rate range, non-finite model weights,
the single drop path and the tracer's reach into every rule."""

from __future__ import annotations

import importlib
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from geomerge.cli import main
from geomerge.delta_ops import SparsifySpec, dare_drop, della_drop, sparsify_stream
from geomerge.errors import ConfigError
from geomerge.merge_methods import METHODS, PARAMS, MergeMethod, merge_della, merge_lerp
from geomerge.sphere import karcher_mean
from geomerge.tensor_io import TensorRecord, write_checkpoint
from oracles import drop_rescale_direct

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spans  # noqa: E402

EXPLICIT = {
    "karcher": {"eta": 0.8, "tol": 1e-8, "max_iter": 30},
    "lerp": {"lambda": 2},
    "slerp": {"t": 0.3},
    "multislerp": {"seed": 5},
    "task_arithmetic": {"lambda": 0.7},
    "ties": {"density": 0.3},
    "dare_lerp": {"drop_rate": 0.3, "seed": 7},
    "dare_ties": {"drop_rate": 0.4, "density": 0.6, "seed": 3},
    "della_lerp": {"drop_rate": 0.4, "window": 0.2, "seed": 2},
    "della_ties": {"drop_rate": 0.3, "window": 0.15, "density": 0.7, "seed": 9},
    "model_stock": {"t": 1},
}

# summary.json "parameters" for the recipes above, as the code before the
# registry wrote them (defaults of the parameters a method reads, plus every
# explicit setting, numbers normalized to float)
PINNED = {
    ("karcher", "default"): {"eta": 1.0, "max_iter": 50, "tol": 1e-06},
    ("karcher", "explicit"): {"eta": 0.8, "max_iter": 30, "tol": 1e-08},
    ("lerp", "default"): {},
    ("lerp", "explicit"): {"lambda": 2.0},
    ("slerp", "default"): {"t": 0.5},
    ("slerp", "explicit"): {"t": 0.3},
    ("multislerp", "default"): {},
    ("multislerp", "explicit"): {"seed": 5},
    ("task_arithmetic", "default"): {"lambda": 1.0},
    ("task_arithmetic", "explicit"): {"lambda": 0.7},
    ("ties", "default"): {"density": 0.5},
    ("ties", "explicit"): {"density": 0.3},
    ("dare_lerp", "default"): {"drop_rate": 0.5, "seed": 0},
    ("dare_lerp", "explicit"): {"drop_rate": 0.3, "seed": 7},
    ("dare_ties", "default"): {"density": 0.5, "drop_rate": 0.5, "seed": 0},
    ("dare_ties", "explicit"): {"density": 0.6, "drop_rate": 0.4, "seed": 3},
    ("della_lerp", "default"): {"drop_rate": 0.5, "seed": 0, "window": 0.1},
    ("della_lerp", "explicit"): {"drop_rate": 0.4, "seed": 2, "window": 0.2},
    ("della_ties", "default"): {"density": 0.5, "drop_rate": 0.5, "seed": 0, "window": 0.1},
    ("della_ties", "explicit"): {"density": 0.7, "drop_rate": 0.3, "seed": 9, "window": 0.15},
    ("model_stock", "default"): {},
    ("model_stock", "explicit"): {"t": 1.0},
}

TENSORS = {"a.w": (6, 5), "b.bias": (7,), "c.big": (300,)}


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(97)
    base = {n: rng.standard_normal(s).astype(np.float32) for n, s in TENSORS.items()}
    write_checkpoint(tmp_path / "base.st", [TensorRecord(n, v) for n, v in base.items()])
    for i in range(3):
        records = [
            TensorRecord(n, (v + 0.1 * rng.standard_normal(v.shape)).astype(np.float32))
            for n, v in base.items()
        ]
        write_checkpoint(tmp_path / f"e{i}.st", records)
    return tmp_path


def _recipe(tmp_path, method, params=None, weights=None):
    n_models = 2 if method == "slerp" else 3
    models = "".join(
        f"  - path: {tmp_path / f'e{i}.st'}\n"
        + (f"    weight: {weights[i]}\n" if weights else "")
        for i in range(n_models)
    )
    body = yaml.safe_dump({"parameters": params}) if params else ""
    path = tmp_path / "recipe.yaml"
    path.write_text(
        f"method: {method}\n"
        f"base_model: {tmp_path / 'base.st'}\n"
        f"models:\n{models}"
        + body
        + f"output: {{path: {tmp_path / 'merged.st'}}}\n"
    )
    return path


class TestMergeMethodParameters:
    @pytest.mark.parametrize(
        "params,message",
        [
            ({"bogus": 1}, r"parameters: unknown key 'bogus' \(typo\?\)"),
            ({"density": 2.0}, r"parameters\.density=2\.0 out of range"),
            ({"density": 0}, r"parameters\.density=0\.0 out of range"),
            ({"tol": -1}, r"parameters\.tol=-1\.0 out of range"),
            ({"eta": 1.5}, r"parameters\.eta=1\.5 out of range"),
            ({"t": "x"}, r"parameters\.t must be a number, got 'x'"),
            ({"lambda": True}, r"parameters\.lambda must be a number"),
            ({"lambda": float("nan")}, r"parameters\.lambda must be a finite number, got nan"),
            ({"drop_rate": float("inf")}, r"parameters\.drop_rate must be a finite number"),
            ({"window": -float("inf")}, r"parameters\.window must be a finite number"),
            ({"tol": 10**400}, r"parameters\.tol must be a finite number, got inf"),
            ({"max_iter": 0}, r"parameters\.max_iter must be a positive integer"),
            ({"max_iter": 2.0}, r"parameters\.max_iter must be a positive integer"),
            ({"seed": -1}, r"parameters\.seed must be an unsigned 64-bit integer"),
            ({"seed": 2**64}, r"parameters\.seed must be an unsigned 64-bit integer"),
        ],
    )
    def test_library_caller_gets_the_recipe_checks(self, params, message):
        with pytest.raises(ConfigError, match=message):
            MergeMethod("ties", params)

    def test_numbers_are_normalized_to_float(self):
        method = MergeMethod("ties", {"density": 1, "seed": 3})
        assert method.params == {"density": 1.0, "seed": 3}
        assert type(method.params["density"]) is float

    def test_every_parameter_a_method_reads_exists(self):
        for kind, spec in METHODS.items():
            assert set(spec.reads) <= set(PARAMS), kind

    def test_defaults_pass_their_own_checks(self):
        for key, param in PARAMS.items():
            assert param.check(key, param.default) == param.default

    @pytest.mark.parametrize("kind", ["dare_lerp", "dare_ties", "ties", "karcher"])
    @pytest.mark.parametrize("drop_rate", [0.0, 0.05, 0.9, 0.99])
    def test_default_window_does_not_bound_other_methods(self, kind, drop_rate):
        assert MergeMethod(kind, {"drop_rate": drop_rate}).param("drop_rate") == drop_rate

    @pytest.mark.parametrize("kind", ["della_lerp", "della_ties"])
    @pytest.mark.parametrize("drop_rate", [0.05, 0.9, 0.95])
    def test_default_window_bounds_della(self, kind, drop_rate):
        with pytest.raises(ConfigError, match="drop_rate \\+ window < 1"):
            MergeMethod(kind, {"drop_rate": drop_rate})

    @pytest.mark.parametrize("kind", ["karcher", "dare_ties", "della_ties"])
    def test_explicit_window_is_checked_for_every_method(self, kind):
        with pytest.raises(ConfigError, match=r"got drop_rate=0\.2, window=0\.3"):
            MergeMethod(kind, {"drop_rate": 0.2, "window": 0.3})


class TestSummaryParameters:
    @pytest.mark.parametrize("tag", ["default", "explicit"])
    @pytest.mark.parametrize("kind", list(EXPLICIT))
    def test_pinned(self, workspace, kind, tag):
        params = EXPLICIT[kind] if tag == "explicit" else None
        assert main(["merge", str(_recipe(workspace, kind, params)), "--threads", "2"]) == 0
        summary = json.loads((workspace / "merged.st.summary.json").read_text())
        # compare JSON text, so 2 and 2.0 differ
        assert json.dumps(summary["parameters"], sort_keys=True) == json.dumps(
            PINNED[kind, tag], sort_keys=True
        )


class TestDareDropRateRange:
    @pytest.mark.parametrize("kind,drop_rate", [("dare_ties", 0.9), ("dare_lerp", 0.05)])
    def test_dare_merges_at_any_rate_below_one(self, workspace, kind, drop_rate):
        recipe = _recipe(workspace, kind, {"drop_rate": drop_rate})
        assert main(["merge", str(recipe)]) == 0
        summary = json.loads((workspace / "merged.st.summary.json").read_text())
        assert summary["parameters"]["drop_rate"] == drop_rate
        assert summary["tensors_merged"] == len(TENSORS)

    def test_dare_rate_through_override(self, workspace):
        recipe = _recipe(workspace, "dare_ties")
        assert main(["merge", str(recipe), "--set", "parameters.drop_rate=0.9"]) == 0

    @pytest.mark.parametrize(
        "kind,params",
        [("della_ties", {"drop_rate": 0.95}), ("karcher", {"drop_rate": 0.2, "window": 0.3})],
    )
    def test_window_constraint_still_exits_1(self, workspace, capsys, kind, params):
        assert main(["merge", str(_recipe(workspace, kind, params))]) == 1
        assert "drop_rate + window < 1" in capsys.readouterr().err
        assert not (workspace / "merged.st").exists()


class TestNonFiniteWeights:
    @pytest.mark.parametrize("kind", ["lerp", "karcher"])
    @pytest.mark.parametrize(
        "value", [".nan", ".inf", pytest.param(str(10**400), id="int-beyond-float")]
    )
    def test_recipe_weight_exits_1(self, workspace, capsys, kind, value):
        recipe = _recipe(workspace, kind, weights=[value, 1, 1])
        assert main(["merge", str(recipe)]) == 1
        err = capsys.readouterr().err
        assert "models[0]: weight must be a finite number" in err
        assert not (workspace / "merged.st").exists()

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_override_weight_exits_1(self, workspace, capsys, value):
        recipe = _recipe(workspace, "lerp")
        assert main(["merge", str(recipe), "--set", f"models.1.weight={value}"]) == 1
        assert "models[1]" in capsys.readouterr().err

    def test_negative_infinity_is_still_negative(self, workspace, capsys):
        assert main(["merge", str(_recipe(workspace, "lerp", weights=["-.inf", 1, 1]))]) == 1
        assert "non-negative" in capsys.readouterr().err

    def test_weights_whose_sum_overflows_exit_1(self, workspace, capsys):
        recipe = _recipe(workspace, "lerp", weights=["1.0e+308", "1.0e+308", 1])
        assert main(["merge", str(recipe)]) == 1
        assert "finite sum" in capsys.readouterr().err

    def test_library_rejects_weights_whose_sum_overflows(self):
        # normalizing by an infinite sum would zero every weight
        with pytest.raises(ValueError, match="finite sum"):
            merge_lerp([np.ones(3), np.ones(3)], [1e308, 1e308])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_library_rules_reject_non_finite_weights(self, bad):
        vectors = [np.ones(4), np.arange(4.0)]
        with pytest.raises(ValueError, match="finite"):
            merge_lerp(vectors, [bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            karcher_mean(np.eye(3), [1.0, bad, 1.0])


class TestOneDropPath:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 1000])
    @pytest.mark.parametrize("drop_rate,window", [(0.0, 0.0), (0.4, 0.0), (0.9, 0.0),
                                                  (0.5, 0.1), (0.4, 0.35)])
    def test_della_drop_matches_the_ranked_reference(self, n, drop_rate, window):
        rng = np.random.default_rng(n)
        delta = rng.standard_normal(n)
        delta[: n // 3] = np.round(delta[: n // 3], 1)  # magnitude ties
        if n > 4:
            delta[1], delta[3] = -0.0, np.nan
        spec = SparsifySpec(drop_rate=drop_rate, window=window, seed=4)
        got = della_drop(delta, spec, sparsify_stream(4, "t", 0))
        want = drop_rescale_direct(delta, drop_rate, window, sparsify_stream(4, "t", 0))
        assert got.tobytes() == want.tobytes()
        if window == 0.0:
            dare = dare_drop(delta, drop_rate, sparsify_stream(4, "t", 0))
            assert dare.tobytes() == want.tobytes()

    def test_window_zero_does_no_rank_sort(self, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("window=0 must not rank the magnitudes")

        monkeypatch.setattr(np, "argsort", no_sort)
        spec = SparsifySpec(drop_rate=0.9, window=0.0)
        della_drop(np.arange(10.0), spec, sparsify_stream(0, "t", 0))

    @pytest.mark.parametrize("combine", ["lerp", "ties"])
    def test_no_list_of_dropped_deltas_is_held(self, combine):
        m, n = 16, 100_000
        rng = np.random.default_rng(98)
        base = rng.standard_normal(n)
        experts = [base + 0.1 * rng.standard_normal(n) for _ in range(m)]
        spec = SparsifySpec(density=0.5, drop_rate=0.5, window=0.0, seed=1)
        tracemalloc.start()
        try:
            merge_della(base, experts, np.ones(m), spec, combine, "t")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stack = 8 * m * n if combine == "ties" else 0
        # the TIES stack plus a handful of length-n temporaries; holding all
        # m dropped deltas as well would add another m x n
        assert peak < stack + 8 * n * (m // 2)


class TestTraceReachesEveryRule:
    """Wrap every traced name as the benchmark's tracer does and check that
    each method's merge still passes through the wrappers; a table that
    bound the functions at import time would bypass them."""

    @pytest.mark.parametrize("kind", list(METHODS))
    def test_rule_and_drop_spans(self, workspace, monkeypatch, kind):
        tracer = spans.Tracer()
        for module_name, path, name, counts in spans.WRAPS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            monkeypatch.setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, counts))

        assert main(["merge", str(_recipe(workspace, kind)), "--threads", "2"]) == 0
        experts = 2 if kind == "slerp" else 3
        assert spans.busy(tracer.spans, spans.RULE)[1] == len(TENSORS)
        drops = sum(s.name == "delta_ops.drop" for s in tracer.spans)
        sparse = kind.startswith(("dare_", "della_"))
        assert drops == (len(TENSORS) * experts if sparse else 0)
        trims = sum(s.name == spans.TRIM for s in tracer.spans)
        assert trims == (len(TENSORS) * experts if kind.endswith("ties") else 0)
        karcher = sum(s.name == spans.KARCHER for s in tracer.spans)
        assert karcher == (len(TENSORS) if kind in ("karcher", "multislerp") else 0)
