"""The package's only runtime dependency outside the standard library is numpy,
each file format has one parser (JSON Lines one decoder), and the initial-clip,
unit-norm, Top-K, rounding-bound and config-override rules have one copy each."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"numpy", "clipedit"}
SOURCES = sorted((ROOT / "src" / "clipedit").glob("*.py"))


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) for each absolute import in `path`."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module))
    return out


def test_sources_found():
    assert any(path.name == "encoder.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib_numpy_or_clipedit(path):
    bad = [
        f"{path.name}:{line}: {module}" for line, module in absolute_imports(path)
        if module.partition(".")[0] not in sys.stdlib_module_names | ALLOWED
    ]
    assert not bad, bad


def test_pyproject_depends_on_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]


def top_level_uses(path: Path, attr: str) -> list[str]:
    """The top-level definition around each use of `.attr` in `path` (`<module>` outside any)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        getattr(stmt, "name", "<module>") for stmt in tree.body for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute) and node.attr == attr
    ]


def test_float32_containers_have_one_parser():
    """Only `corpus` imports `struct` and only `corpus.read_f32` calls `np.frombuffer`,
    so a second copy of the container parser fails here."""
    importers = [
        (path.name, module) for path in SOURCES for _, module in absolute_imports(path)
        if module.partition(".")[0] == "struct"
    ]
    assert importers == [("corpus.py", "struct")]
    users = [(path.name, name) for path in SOURCES for name in top_level_uses(path, "frombuffer")]
    assert users == [("corpus.py", "read_f32")]


def test_json_lines_have_one_decoder():
    """Only `corpus`'s two line readers, `read_jsonl` (per line) and `_jsonl_columns`
    (in bulk), decode JSON Lines, both with `_raw_decode` (bound once at module level),
    and only `read_jsonl` calls `json.loads` in `corpus`; `cli` and `config` call it on
    whole JSON files. So the bulk and per-line paths cannot drift into two decoders."""
    users = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        users += [
            (path.name, getattr(stmt, "name", "<module>")) for stmt in tree.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and node.id == "_raw_decode"
            or isinstance(node, ast.Attribute) and node.attr in ("loads", "raw_decode", "scan_once", "JSONDecoder")
        ]
    assert sorted(set(users)) == [
        ("cli.py", "_check_outputs"), ("config.py", "_json_or_str"), ("config.py", "load_config_dict"),
        ("corpus.py", "<module>"), ("corpus.py", "_jsonl_columns"), ("corpus.py", "read_jsonl"),
    ]


def test_csv_files_have_one_writer():
    users = [(path.name, name) for path in SOURCES for name in top_level_uses(path, "writer")]
    assert users == [("corpus.py", "write_csv")]


def test_initial_clip_rule_has_one_copy():
    """Only `InitStrategy` and `timeline.initial_clips` read a strategy's `.variant`,
    so a second copy of the initial-clip rule fails here."""
    users = [(path.name, name) for path in SOURCES for name in top_level_uses(path, "variant")]
    assert sorted(set(users)) == [("timeline.py", "InitStrategy"), ("timeline.py", "initial_clips")]


def test_embedding_norm_rule_has_one_copy():
    """Only `encoder._unit` and the synthetic generator's `corpus._unit` read `.norm`,
    so a second copy of the unit-norm rule fails here."""
    users = [(path.name, name) for path in SOURCES for name in top_level_uses(path, "norm")]
    assert sorted(users) == [("corpus.py", "_unit"), ("encoder.py", "_unit")]


def test_top_k_rule_has_one_copy():
    """Only `editor.top_k_segments` reads `.argsort` in the editor, so a second
    copy of the Top-K rule (a sort of segment scores) fails here."""
    assert top_level_uses(ROOT / "src" / "clipedit" / "editor.py", "argsort") == ["top_k_segments"]


def test_rounding_bound_has_one_copy():
    """Only `encoder._roundoff` reads `.finfo`, so a second derivation of the unit
    roundoff and gamma_n (for a margin or an error bound) fails here."""
    users = [(path.name, name) for path in SOURCES for name in top_level_uses(path, "finfo")]
    assert users == [("encoder.py", "_roundoff")]


def test_config_override_rule_has_one_copy():
    """Only `config._merge` says `unknown config key`, so a second copy of the
    override rule (a walk of dotted keys into the config) fails here."""
    users = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        users += [
            (path.name, getattr(stmt, "name", "<module>")) for stmt in tree.body for node in ast.walk(stmt)
            if isinstance(node, ast.Constant) and "unknown config key" in str(node.value)
        ]
    assert users == [("config.py", "_merge")]
