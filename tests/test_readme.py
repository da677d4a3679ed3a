"""Every ``python`` code block of README.md runs as written, its CLI usage
lists the options, choices and positional arguments that the parser
accepts, and its JSON report fields name the route labels that
``framescale.scalability`` has."""

import re
from pathlib import Path

from framescale import scalability
from framescale.cli import _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert blocks
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), {})


def _choices(parser, dest):
    [action] = [a for a in parser._actions if a.dest == dest]
    return list(action.choices)


def _options(parser):
    return sorted(s for a in parser._actions for s in a.option_strings
                  if s not in ("-h", "--help"))


def _placeholders(parser):
    """The usage-line placeholder of each positional argument of ``parser``:
    its choices or its upper-case name, ``...`` after it when it takes one
    or more, and in brackets when it may be left out."""
    out = []
    for a in parser._actions:
        if a.option_strings:
            continue
        name = "|".join(a.choices) if a.choices else (a.metavar or a.dest).upper()
        out.append({None: name, "+": name + "...", "?": f"[{name}]",
                    "*": f"[{name}...]"}[a.nargs])
    return out


def test_cli_usage_lists_the_parser_choices():
    text = README.read_text(encoding="utf-8")
    usage = re.search(r"^## CLI\n\n```\n(.*?)^```", text, re.MULTILINE | re.DOTALL).group(1)
    methods = re.search(r"^framescale scale .*\[--method ([\w|-]+)\]", usage, re.MULTILINE)
    kinds = re.search(r"^framescale generate ([\w|-]+) ", usage, re.MULTILINE)
    _, commands = _build_parser()
    assert methods.group(1).split("|") == _choices(commands["scale"], "method")
    assert kinds.group(1).split("|") == _choices(commands["generate"], "kind")
    # each command's line lists exactly its parser's options, and its
    # positional arguments in order, each with its arity
    lines = dict(re.findall(r"^framescale (\w+) (.*)$", usage, re.MULTILINE))
    assert sorted(lines) == sorted(commands)
    for name, line in lines.items():
        assert sorted(re.findall(r"--[\w-]+", line)) == _options(commands[name]), name
        tokens = re.findall(r"\[[^\]]*\]|\S+", line)
        positionals = [t for t in tokens if not t.startswith("[--")]
        assert positionals == _placeholders(commands[name]), name


def test_json_method_values_are_route_labels():
    # the values "JSON report fields" gives ``method``, the backquoted words
    # before the first comma of its parentheses, are METHOD_* labels, and
    # the one that ``decide`` answers with is among them
    text = README.read_text(encoding="utf-8")
    fields = re.search(r"^### JSON report fields\n(.*?)^#", text, re.MULTILINE | re.DOTALL).group(1)
    [listed] = re.findall(r"`method` \(([^,]*),", fields)
    values = re.findall(r"`(\w+)`", listed)
    labels = {v for k, v in vars(scalability).items() if k.startswith("METHOD_")}
    assert set(values) <= labels, values
    assert scalability.METHOD_FEASIBILITY in values
