"""``ftmd.__all__`` is the API that README.md documents, and no more, and
README.md's examples print what their comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

import ftmd
from ftmd.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def imported_from_ftmd(source):
    """Names that ``from ftmd import ...`` statements in ``source`` import."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "ftmd"
        for alias in node.names
    ]


def test_every_exported_name_is_in_the_readme():
    missing = [name for name in ftmd.__all__ if not re.search(rf"\b{name}\b", README)]
    assert missing == []


def test_readme_and_scripts_import_only_exported_names():
    sources = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    sources += [p.read_text(encoding="utf-8") for p in (ROOT / "scripts").glob("*.py")]
    names = [name for source in sources for name in imported_from_ftmd(source)]
    assert names  # the check would pass vacuously on no imports
    assert [name for name in names if name not in ftmd.__all__] == []


def test_exported_names_exist():
    assert all(hasattr(ftmd, name) for name in ftmd.__all__)
    assert len(set(ftmd.__all__)) == len(ftmd.__all__)


def test_readme_examples_print_their_comments():
    # Each print's output follows it as a comment, on the same line or the
    # next one.
    blocks = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    assert blocks
    for block in blocks:
        expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.MULTILINE)
        assert len(expected) == len(re.findall(r"^print\(", block, re.MULTILINE))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, {})
        assert out.getvalue().splitlines() == expected


def test_readme_shell_transcript_prints_what_it_shows(tmp_path, monkeypatch):
    # The file that `cat` shows, then what `ftmd solve` prints for it.
    transcript = re.search(
        r"```\n\$ cat (\S+)\n(.*?)\$ ftmd solve \1\n(.*?)```", README, re.DOTALL
    )
    assert transcript
    name, text, expected = transcript.groups()
    (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve", name]) == 0
    assert out.getvalue() == expected
