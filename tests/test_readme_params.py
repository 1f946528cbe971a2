"""The README's method list and parameter table agree with the registry."""

from __future__ import annotations

import re
from pathlib import Path

from geomerge.merge_methods import METHODS, PARAMS
from geomerge.recipe import load_yaml, parse_recipe

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _readme_methods() -> list[str]:
    """The kinds listed in the example recipe's ``method:`` comment."""
    block = re.search(r"^method: \w+ +#(.*?)\nmodels:", README, re.M | re.S)
    assert block, "no method list in README's example recipe"
    text = block.group(1).replace("#", "")
    return [kind.strip() for kind in text.split("|")]


def _readme_table() -> dict[str, tuple[set[str], str]]:
    """Each row of the parameter table: its methods, expanded, and its default."""
    section = README.split("Which parameter applies to which method:", 1)[1]
    rows = re.findall(r"^\| `(\w+)` +\| ([^|]+?) +\| ([^|]+?) +\|", section, re.M)
    assert rows, "no parameter table in README"
    table = {}
    for key, used_by, default in rows:
        methods: set[str] = set()
        for entry in used_by.replace("\\", "").split(","):
            entry = entry.strip()
            if entry == "all":
                methods.update(METHODS)
            elif entry.endswith("_*"):
                methods.update(k for k in METHODS if k.startswith(entry[:-1]))
            else:
                methods.add(entry)
        table[key] = (methods, default)
    return table


def test_method_list_matches_the_registry():
    assert _readme_methods() == list(METHODS)


def test_parameter_rows_match_what_each_method_reads():
    table = _readme_table()
    assert set(table) == set(PARAMS) | {"precision", "strict"}
    for key in PARAMS:
        readers = {kind for kind, spec in METHODS.items() if key in spec.reads}
        assert table[key][0] == readers, key
    assert table["precision"][0] == table["strict"][0] == set(METHODS)


def test_parameter_defaults_match():
    table = _readme_table()
    for key, param in PARAMS.items():
        default = load_yaml(table[key][1])
        assert (type(default), default) == (type(param.default), param.default), key
    recipe = parse_recipe("method: lerp\nmodels: [a.st]\noutput: {path: m.st}\n")
    assert load_yaml(table["precision"][1]) == recipe.precision
    assert load_yaml(table["strict"][1]) is recipe.strict
