"""Every ``python -m repro.cli`` command line the docs show still works.

Each line must parse under :func:`repro.cli.build_parser`, and each ``run``
line must also build its config (without running it), so a doc that still
shows a retired subcommand, flag or setting fails here.
"""

import pathlib
import re
import shlex

import pytest

import repro.cli
from repro.cli import build_parser, configure

ROOT = pathlib.Path(__file__).resolve().parents[1]
PREFIX = "python -m repro.cli"
# Where a shell command line's arguments end: the next command begins, or
# a redirection names a file.
SHELL_OPERATORS = ("||", "&&", "|", ";", "2>")
# Command lines CI runs to see a usage error: each must be refused, with
# the dotted path of the setting it names.
USAGE_ERRORS = {
    ("run", "--set", 'planner={decide_s="x"}'): "planner.decide_s",
    ("run", "--set", 'sample_memory="no"'): "sample_memory",
}
DOCS = {
    "README.md": ["README.md"],
    "DESIGN.md": ["DESIGN.md"],
    "EXPERIMENTS.md": ["EXPERIMENTS.md"],
    "benchmarks/README.md": ["benchmarks/README.md"],
    "verify skill": [".claude/skills/verify/SKILL.md"],
    "ci.yml": [".github/workflows/ci.yml"],
    "spec comments": sorted(
        str(path.relative_to(ROOT))
        for folder in ("benchmarks", "benchmarks/paper", "benchmarks/ablations",
                       "benchmarks/extensions")
        for path in (ROOT / folder).glob("*.toml")
    ),
}


def _logical_lines(text: str) -> list[str]:
    """``text``'s lines with continuations joined: a trailing backslash
    joins the next line (minus a comment's ``#`` leader), and a YAML folded
    block (``run: >``) is one line."""
    lines, out = text.splitlines(), []
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        folded = re.match(r"(\s*)(?:- )?run: >\s*$", line)
        if folded:
            indent = len(folded.group(1))
            block = []
            while i < len(lines) and (
                not lines[i].strip() or len(lines[i]) - len(lines[i].lstrip()) > indent
            ):
                block.append(lines[i].strip())
                i += 1
            out.append(" ".join(block))
            continue
        while line.rstrip().endswith("\\") and i < len(lines):
            line = line.rstrip()[:-1] + " " + re.sub(r"^\s*#?", "", lines[i])
            i += 1
        out.append(line)
    return out


def command_lines(text: str) -> list[list[str]]:
    """The argv of every ``python -m repro.cli`` command line in ``text``.

    A line ends at an inline-code backtick, a comment or a shell operator.
    A bare mention of the CLI, with no subcommand, is not a command line.
    """
    commands = []
    for line in _logical_lines(text):
        for rest in line.split(PREFIX)[1:]:
            argv = shlex.split(rest.split("`")[0], comments=True)
            for i, token in enumerate(argv):
                if token in SHELL_OPERATORS:
                    del argv[i:]
                    break
            if argv:
                commands.append(argv)
    return commands


def _problem(argv: list[str]):
    """Why ``argv`` does not work, or None."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        return "does not parse"
    if args.command == "run":
        try:
            configure(args)
        except ValueError as exc:  # ConfigError
            return f"builds no config: {exc}"
    return None


@pytest.mark.parametrize("doc", [*DOCS, "cli.py docstring"])
def test_doc_command_lines_parse_and_build(doc, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # spec paths are relative to the repository root
    if doc == "cli.py docstring":
        texts = [repro.cli.__doc__]
    else:
        texts = [(ROOT / path).read_text(encoding="utf-8") for path in DOCS[doc]]
    commands = [argv for text in texts for argv in command_lines(text)]
    assert commands, f"{doc} shows no command line"
    problems = []
    for argv in commands:
        problem = _problem(argv)
        field = USAGE_ERRORS.get(tuple(argv))
        if field is not None:
            if problem is None or not problem.startswith("builds no config: "):
                problems.append(f"{shlex.join(argv)}: should be refused")
            elif field not in problem:
                problems.append(f"{shlex.join(argv)}: refused without naming {field}")
        elif problem is not None:
            problems.append(f"{shlex.join(argv)}: {problem}")
    assert not problems, "\n".join(problems)


def test_command_lines_are_gathered_across_continuations():
    text = (
        "```bash\n"
        "python -m repro.cli run --set rate=5000 \\\n"
        "    --set duration_s=2   # a comment\n"
        "```\n"
        "#   python -m repro.cli matrix --spec a.toml \\\n"
        "#       --jobs 2\n"
        "      - run: >\n"
        "          python -m repro.cli replay\n"
        "          count.jsonl\n"
        "Run `python -m repro.cli list` or `python -m repro.cli`.\n"
        'python -m repro.cli matrix --spec "$spec" || status=1\n'
        "python -m repro.cli run --set seed=2 2> err.txt\n"
    )
    assert command_lines(text) == [
        ["run", "--set", "rate=5000", "--set", "duration_s=2"],
        ["matrix", "--spec", "a.toml", "--jobs", "2"],
        ["replay", "count.jsonl"],
        ["list"],
        ["matrix", "--spec", "$spec"],
        ["run", "--set", "seed=2"],
    ]
    assert _problem(["count", "--workers", "4"]) == "does not parse"
    assert _problem(["run", "--set", "workers=4"]).startswith("builds no config")
