"""Tests of tools/code_lines.py, the code-line count CI reports."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_docstrings_comments_and_blank_lines_do_not_count():
    source = textwrap.dedent('''\
        """Module docstring,
        over two lines."""
        import os  # a comment beside code counts

        # a comment alone does not


        class A:
            """Class docstring."""

            def f(self, x):
                """Function
                docstring."""
                text = """a string
                that is no docstring"""
                return (x +
                        1)
        ''')
    # import, class, def, the two lines of text, the two of return
    assert code_lines.code_lines(source) == 7


def test_counts_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("y = 2\nz = 3\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["1", str(tmp_path / "a.py")], ["2", str(tmp_path / "sub" / "b.py")], ["3", "total"]]
