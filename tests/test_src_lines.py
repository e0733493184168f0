import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = textwrap.dedent('''\
    """Module docstring,

    with a blank line inside."""

    # a comment
    import os


    class A:
        """Class docstring."""

        x = "not a docstring"   # a trailing comment is code

        def f(self):
            """Method
            docstring."""
            return """a string
    that is not the first statement"""


    def g():
        # a comment in a body
        return 1
    ''')


def test_lines_are_counted_by_kind():
    assert src_lines.count_lines(SOURCE) == {"code": 8, "docstring": 6, "blank": 7,
                                             "comment": 2}
    assert sum(src_lines.count_lines(SOURCE).values()) == len(SOURCE.splitlines())


def test_a_function_whose_body_is_its_docstring_counts_it_as_docstring():
    assert src_lines.count_lines('def f():\n    """Only this."""\n') == {
        "code": 1, "docstring": 1, "blank": 0, "comment": 0}
