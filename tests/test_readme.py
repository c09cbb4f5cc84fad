"""README.md is the contract: each promise it states is read from its text and
checked against what the code says, as ``tests/cli_help.txt`` pins the help
texts.  A change to a constant, a command, a descriptor or an example that
the README does not follow fails here."""

import doctest
import functools
import importlib
import json
import os
import re
import shlex

import pytest

import homlab
from homlab import cli
from homlab.bs_core import BeamSplitterSetting
from homlab.states import parse_state

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@functools.cache
def _text() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def _section(title: str) -> str:
    """The text under the heading ``title``, up to the next heading."""
    match = re.search(rf"^#+ {re.escape(title)}\n(.*?)(?=^#|\Z)", _text(), re.M | re.S)
    assert match, f"README.md has no section {title!r}"
    return match.group(1)


def _fenced(title: str, lang: str) -> str:
    """The body of the ```lang block of a section."""
    match = re.search(rf"^```{lang}\n(.*?)^```$", _section(title), re.M | re.S)
    assert match, f"section {title!r} has no {lang} block"
    return match.group(1)


def _paragraph(title: str, start: str) -> str:
    """The paragraph of a section that starts with ``start``."""
    paragraphs = [p for p in _section(title).strip().split("\n\n") if p.startswith(start)]
    assert len(paragraphs) == 1, f"section {title!r} needs one paragraph starting {start!r}"
    return paragraphs[0]


def _rows(title: str) -> list[list[str]]:
    """The cells of each body row of a section's table."""
    lines = [line for line in _section(title).splitlines() if line.startswith("| ")]
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]] for line in lines[2:]]


def _ticks(text: str) -> list[str]:
    return re.findall(r"`([^`]+)`", text)


def _examples() -> list[str]:
    return [line for line in _fenced("Command line", "bash").splitlines()
            if line.startswith("homlab ")]


def test_size():
    assert len(_text().encode()) < 8192


def test_exit_codes():
    stated = {_ticks(name)[0]: int(code) for code, name, _ in _rows("Exit codes")}
    assert stated == {name: getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")}


def test_commands():
    commands = _ticks(_paragraph("Command line", "Commands:"))
    assert commands == list(cli.COMMANDS)
    # one example each, in the same order
    assert [shlex.split(line)[1] for line in _examples()] == commands


def test_output_formats():
    csv = _ticks(_paragraph("Output", "Every command writes JSON;"))
    assert csv == [name for name, command in cli.COMMANDS.items() if "csv" in command.formats]
    assert all(command.formats[0] == "json" for command in cli.COMMANDS.values())


def test_tolerances_and_limits():
    stated = {}
    for name, value, _ in _rows("Tolerances and limits"):
        module, constant = _ticks(name)[0].split(".")  # homlab or one of its modules
        module = importlib.import_module(module if module == "homlab" else f"homlab.{module}")
        stated[constant] = (getattr(module, constant), value)
    assert sorted(stated) == sorted(["NEGATIVE_TOL", "MASS_TOL", "EPS_NORM", "HERMITICITY_TOL",
                                     "GRID_CELLS", "MAX_CUTOFF"])
    for constant, (actual, value) in stated.items():
        assert float(value) == actual, constant


def test_largest_grid():
    from homlab.joint_dist import GRID_CELLS
    largest = int(re.search(r"the largest `grid_max` is (\d+)", _text()).group(1))
    assert (largest + 1) ** 2 <= GRID_CELLS < (largest + 2) ** 2


def test_descriptors(tmp_path):
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps({"type": "pure", "amplitudes": [[0.6, 0], [0, 0.8]]}))
    descriptors = [_ticks(row[0])[0] for row in _rows("Command line")]
    # every kind that parse_state lists, and each parses to a state of that label
    assert {d.split(":")[0] for d in descriptors} \
        == set(re.findall(r'"(\w+):', parse_state.__doc__))
    for descriptor in descriptors:
        descriptor = descriptor.replace("state.json", str(state_file))
        assert parse_state(descriptor).label == descriptor


def test_splitter_specs():
    flag, default, *others = _ticks(_paragraph("Command line", "Beam-splitter specs"))
    assert flag == "--bs"
    assert {command.flags[flag]["default"] for command in cli.COMMANDS.values()
            if flag in command.flags} == {default}
    for spec in (default, *others):
        BeamSplitterSetting.parse(spec)


@pytest.mark.parametrize("line", _examples())
def test_cli_example(line, tmp_path, capsys):
    argv = shlex.split(line)[1:]
    if "-o" in argv:
        argv[argv.index("-o") + 1] = str(tmp_path / argv[argv.index("-o") + 1])
    else:
        argv += ["-o", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err


def test_library_tour():
    test = doctest.DocTestParser().get_doctest(_fenced("Library tour", "pycon"), {},
                                               "README.md library tour", README, 0)
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.attempted and not result.failed, "".join(report)


def test_modules():
    listed = {_ticks(line)[0] for line in _section("Modules").splitlines()
              if line.startswith("- ")}
    package = os.path.dirname(homlab.__file__)
    assert listed == {name[:-3] for name in os.listdir(package)
                      if name.endswith(".py") and name != "__init__.py"}
