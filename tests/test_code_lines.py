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
