import importlib.util
from pathlib import Path

path = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", path)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""A module docstring
over two lines."""

# a comment
def f():
    """A function docstring."""
    return "# not a comment"
'''


def test_counts_only_code_lines(tmp_path, capsys):
    assert code_lines.count(SAMPLE) == (7, 2)
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE)
    assert code_lines.main([str(sample)]) == 0
    assert capsys.readouterr().out.split() == ["7", "2", str(sample), "7", "2", "total"]


def test_directory_counts_its_python_files_in_order(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text(SAMPLE)
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == [
        "1", "1", str(tmp_path / "a.py"),
        "7", "2", str(tmp_path / "b.py"),
        "8", "3", "total",
    ]
