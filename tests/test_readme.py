"""The README's examples run, and give the values their comments state."""

import math
import re
import shlex
from pathlib import Path

import pytest

from measurekit import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading, lang):
    """The first ``lang`` code block after the ``## heading`` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _commented_expressions(block):
    """{comment: code} for each line of block that is an expression followed
    by a comment."""
    out = {}
    for line in block.splitlines():
        code, sep, comment = line.partition("  # ")
        if not sep or not code.strip():
            continue
        try:
            compile(code.strip(), "<readme>", "eval")
        except SyntaxError:  # an assignment or a statement
            continue
        out[comment.strip()] = code.strip()
    return out


def test_library_tour_gives_its_commented_values():
    tour = _block("Library tour", "python")
    namespace = {}
    exec(compile(tour, "<readme>", "exec"), namespace)
    values = {comment: eval(code, namespace)
              for comment, code in _commented_expressions(tour).items()}
    assert values["data term only: -0.5"] == -0.5
    assert values["-1.4189385332046727"] == -1.4189385332046727
    assert values["log(1/2): the atom's share"].value == pytest.approx(math.log(0.5), abs=1e-15)
    assert abs(values["~1.0"] - 1.0) <= 1e-6


def test_command_line_examples_print_their_commented_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = iter(_block("Command line", "sh").splitlines())
    checked = []
    out = ""
    for line in lines:
        heredoc = re.fullmatch(r"cat > (\S+) <<'(\w+)'", line)
        if heredoc:
            name, end = heredoc.groups()
            body = []
            for body_line in lines:
                if body_line == end:
                    break
                body.append(body_line)
            (tmp_path / name).write_text("\n".join(body) + "\n")
        elif line.startswith("measurekit "):
            assert cli.main(shlex.split(line)[1:]) == 0, line
            out = capsys.readouterr().out
            assert out, line
        elif line.startswith("# "):
            expected = line[2:]
            assert expected in out.splitlines(), (expected, out)
            checked.append(expected)
    assert checked == ["-1.4189385332046727", "mass 1 PASS"]
