"""README's code blocks run against the package as it is."""

import copy
import importlib
import json
import os
import pkgutil
import re

import dampsim
from dampsim import cli

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def readme_text() -> str:
    with open(README) as fh:
        return fh.read()


def readme_block(heading: str, language: str) -> str:
    """The first fenced block of the given language under a heading."""
    section = readme_text().split(heading + "\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    exec(readme_block("## Library example", "python"), {})


def test_scenario_example_loads(tmp_path):
    # every key of the documented scenario is one the parser knows
    path = tmp_path / "scenario.json"
    path.write_text(readme_block("### Scenario format (JSON)", "json"))
    scenario = cli.load_scenario(str(path))
    assert scenario.engine == "both" and scenario.lct is not None


def test_module_names_resolve():
    # every `module.name` the README cites is in the package, so a deleted
    # or renamed function cannot linger in the docs
    modules = {m.name for m in pkgutil.iter_modules(dampsim.__path__)}
    cited = re.findall(r"`(\w+)\.(\w+)", readme_text())
    names = [(m, n) for m, n in cited if m in modules]
    assert len(names) >= 20
    missing = [f"{m}.{n}" for m, n in names
               if not hasattr(importlib.import_module(f"dampsim.{m}"), n)]
    assert missing == []


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
