"""README's code blocks run against the package as it is, and what README
and the package's docstrings and comments cite exists."""

import ast
import copy
import importlib
import io
import json
import os
import pkgutil
import re
import tokenize

import pytest

import dampsim
from dampsim import cli, fock

ROOT = os.path.dirname(os.path.dirname(__file__))
README = os.path.join(ROOT, "README.md")
MODULES = [m.name for m in pkgutil.iter_modules(dampsim.__path__)]


def readme_text() -> str:
    with open(README) as fh:
        return fh.read()


def readme_block(heading: str, language: str) -> str:
    """The first fenced block of the given language under a heading."""
    section = readme_text().split(heading + "\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def readme_section(heading: str) -> str:
    """The text under a `## ` heading, up to the next one."""
    return readme_text().split(heading + "\n", 1)[1].split("\n## ", 1)[0]


def source_notes() -> str:
    """Every docstring and comment of the package's modules."""
    notes = []
    for name in MODULES:
        with open(os.path.join(dampsim.__path__[0], name + ".py")) as fh:
            source = fh.read()
        notes += [ast.get_docstring(node) or ""
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef))]
        notes += [token.string for token in
                  tokenize.generate_tokens(io.StringIO(source).readline)
                  if token.type == tokenize.COMMENT]
    return "\n".join(notes)


def unresolved(names) -> list[str]:
    """The `module.name` pairs whose module lacks the name."""
    return [f"{m}.{n}" for m, n in names
            if not hasattr(importlib.import_module(f"dampsim.{m}"), n)]


def defines(path: str, qualname: str) -> bool:
    """Whether the Python file at path defines qualname, a `::`-separated
    chain of classes and functions as pytest names a test."""
    if not os.path.exists(path):
        return False
    with open(path) as fh:
        body = ast.parse(fh.read()).body
    for part in qualname.split("::"):
        node = next((node for node in body if getattr(node, "name", None)
                     == part), None)
        if node is None:
            return False
        body = node.body
    return True


def test_library_example_runs():
    exec(readme_block("## Library example", "python"), {})


def test_scenario_example_loads(tmp_path):
    # every key of the documented scenario is one the parser knows
    path = tmp_path / "scenario.json"
    path.write_text(readme_block("### Scenario format (JSON)", "json"))
    scenario = cli.load_scenario(str(path))
    assert scenario.lct is not None


def test_engine_values_are_the_accepted_ones(tmp_path):
    # the engine values README's scenario format lists, up to the first
    # comma of the `engine` bullet, are the ones load_scenario accepts and
    # the ones its error for any other value names, with the oracle
    # command, which runs the Fock engine
    bullet = readme_text().split("\n- `engine`: ", 1)[1].split(",", 1)[0]
    listed = re.findall(r"`(\w+)`", bullet)
    assert listed
    example = json.loads(readme_block("### Scenario format (JSON)", "json"))
    path = tmp_path / "scenario.json"
    for engine in listed:
        path.write_text(json.dumps(dict(example, engine=engine)))
        cli.load_scenario(str(path))
    for engine in ("both", "fock"):
        path.write_text(json.dumps(dict(example, engine=engine)))
        with pytest.raises(ValueError) as exc:
            cli.load_scenario(str(path))
        assert re.findall(r"'(\w+)'", str(exc.value)) == [engine, *listed]
        assert "oracle" in str(exc.value)


def test_quoted_limits_are_the_constants():
    # every `fock_dim <= N` and `n_steps <= N` README quotes is the limit
    # the package enforces, and each limit is quoted
    for key, limits in (("fock_dim", {fock.MAX_DENSITY_DIM,
                                      fock.MAX_PRODUCT_DIM}),
                        ("n_steps", {cli._MAX_STEPS})):
        quoted = re.findall(rf"\b{key} <= (\d+)", readme_text())
        assert set(map(int, quoted)) == limits, key


def test_module_names_resolve():
    # every `module.name` the README cites is in the package, so a deleted
    # or renamed function cannot linger in the docs
    cited = re.findall(r"`(\w+)\.(\w+)", readme_text())
    names = [(m, n) for m, n in cited if m in MODULES]
    assert len(names) >= 20
    assert unresolved(names) == []


def test_docstring_names_resolve():
    # the same for every module.name the package's docstrings and comments
    # cite, where the design notes live
    cited = re.findall(r"\b(\w+)\.(\w+)", source_notes())
    names = [(m, n) for m, n in cited if m in MODULES]
    assert len(names) >= 8
    assert unresolved(names) == []


def test_cited_files_resolve():
    # every BENCH_<n>.json and tests/<file>.py::<name> that README or a
    # docstring or comment cites exists, so a cited figure or test cannot
    # dangle
    text = readme_text() + source_notes()
    benches = set(re.findall(r"\bBENCH_\d+\.json\b", text))
    tests = set(re.findall(r"\btests/(\w+\.py)::(\w+(?:::\w+)*)", text))
    assert benches and tests
    missing = [bench for bench in benches
               if not os.path.isfile(os.path.join(ROOT, bench))]
    missing += [f"tests/{file}::{name}" for file, name in tests
                if not defines(os.path.join(ROOT, "tests", file), name)]
    assert missing == []


def test_output_files_resolve(tmp_path):
    # the output files README's CLI section names, per command in its
    # synopsis, are those each command writes on README's scenario example
    synopsis = readme_block("## CLI", "sh")
    listed = {command: set(files.split(" + ")) for command, files
              in re.findall(r"dampsim (\w+) .*# (.*)", synopsis)}
    assert set(listed) == set(cli._COMMANDS)
    config = tmp_path / "scenario.json"
    config.write_text(readme_block("### Scenario format (JSON)", "json"))
    written = {}
    for command in listed:
        out = tmp_path / command
        assert cli.main([command, "--config", str(config),
                         "--output", str(out)]) == 0
        written[command] = set(os.listdir(out))
    assert written == listed
    named = re.findall(r"\b\w+\.(?:csv|txt)\b", readme_section("## CLI"))
    assert set(named) == set().union(*written.values())


def test_scenario_keys_resolve(tmp_path):
    # every scenario key path the README cites in backticks (`lct.M`,
    # `initial.alpha1`) is one load_scenario accepts, so a removed key
    # cannot linger in the docs; a quoted path, as in the error example
    # 'system.mode1.kapa', is skipped
    example = json.loads(readme_block("### Scenario format (JSON)", "json"))
    objects = "|".join(k for k, v in example.items() if isinstance(v, dict))
    cited = set(re.findall(rf"`((?:{objects})(?:\.\w+)+)", readme_text()))
    assert len(cited) >= 4
    path = tmp_path / "scenario.json"

    def accepts(key_path, initial):
        """Whether the example, with initial and key_path added, loads
        past the unknown-key check of key_path's object. The entries
        before it stay valid, so their errors cannot hide that one."""
        scenario = dict(copy.deepcopy(example), initial=initial)
        *parents, key = key_path.split(".")
        parent = scenario
        for name in parents:
            parent = parent[name]
        parent.setdefault(key, 0.0)
        path.write_text(json.dumps(scenario))
        try:
            cli.load_scenario(str(path))
        except cli.ParseError as exc:
            return str(exc) != f"unknown scenario key: {key_path!r}"
        except ValueError:  # a known key with a placeholder value
            pass
        return True

    def initials(key_path):
        # the keys of initial depend on its type; a bare {"type": kind}
        # fails, if at all, only after initial's unknown-key check
        if key_path.startswith("initial."):
            return [{"type": kind} for kind in
                    ("vacuum", "coherent", "moments", "density")]
        return [example["initial"]]

    unknown = [key_path for key_path in sorted(cited)
               if not any(accepts(key_path, initial)
                          for initial in initials(key_path))]
    assert unknown == []


def test_quoted_scenario_errors_are_raised(tmp_path):
    # each scenario error README quotes is exactly the one load_scenario
    # raises on README's scenario example changed at the key it names, so
    # a reworded message cannot drift from the contract
    example = json.loads(readme_block("### Scenario format (JSON)", "json"))
    quoted = re.findall(r"`([^`]*scenario key[^`]*)`", readme_text())
    assert len(quoted) >= 5
    path = tmp_path / "scenario.json"
    for message in quoted:
        scenario = copy.deepcopy(example)
        *parents, key = re.search(r"'([\w.]+)'", message).group(1).split(".")
        parent = scenario
        for name in parents:
            parent = parent[name]
        value = parent.get(key)
        if message.startswith("missing "):
            del parent[key]
        elif message.startswith("unknown "):
            parent[key] = 0.0
        elif message.startswith("duplicate "):
            parent[key] = "<twice>"
        else:  # has wrong shape: ..., got (n, ...)
            shape = re.fullmatch(r".* has wrong shape: .*, got (\(.*\))",
                                 message).group(1)
            parent[key] = 0.0
            for n in reversed(ast.literal_eval(shape)):
                parent[key] = [parent[key]] * n
        twice = f"{json.dumps(value)}, {json.dumps(key)}: {json.dumps(value)}"
        path.write_text(json.dumps(scenario).replace('"<twice>"', twice))
        with pytest.raises((cli.ParseError, ValueError)) as exc:
            cli.load_scenario(str(path))
        assert str(exc.value) == message
