"""``code_lines`` counts code, not docstrings, comments or blank lines."""

import code_lines

SOURCE = '''"""A module
docstring."""

# a comment
X = (1,
     2)  # a trailing comment


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        return """a string
that is code"""
'''


def test_code_lines_counts_every_line_of_code_and_no_docstring():
    # X's two lines, the class line, the def line and the return's two lines
    assert code_lines.code_lines(SOURCE) == 6
