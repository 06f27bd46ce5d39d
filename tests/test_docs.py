"""README's code blocks run against the package as it is."""

import os
import re

from dampsim import cli

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def readme_block(heading: str, language: str) -> str:
    """The first fenced block of the given language under a heading."""
    with open(README) as fh:
        text = fh.read()
    section = text.split(heading + "\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    exec(readme_block("## Library example", "python"), {})


def test_scenario_example_loads(tmp_path):
    # every key of the documented scenario is one the parser knows
    path = tmp_path / "scenario.json"
    path.write_text(readme_block("### Scenario format (JSON)", "json"))
    scenario = cli.load_scenario(str(path))
    assert scenario.engine == "both" and scenario.lct is not None
