"""The README's CLI examples, run through ``piord.cli.main``."""

import io
import pathlib
import shlex

from piord.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(argv, expected stdout) for each ``$ piord ...`` line of the fenced
    block after ``Examples:``; the lines up to the next ``$`` are its
    output."""
    text = README.read_text(encoding="utf-8")
    block = text.split("Examples:", 1)[1].split("```", 2)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((shlex.split(line[2:])[1:], []))
        elif examples:
            examples[-1][1].append(line)
    return [(argv, "".join(out + "\n" for out in lines))
            for argv, lines in examples]


def test_readme_examples():
    examples = _examples()
    assert len(examples) >= 4
    for argv, want in examples:
        out, err = io.StringIO(), io.StringIO()
        main(argv, stdout=out, stderr=err)
        assert out.getvalue() == want, (argv, err.getvalue())
