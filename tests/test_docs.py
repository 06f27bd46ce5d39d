"""README's code blocks run against the package as it is."""

import importlib
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
