"""README's Quickstart runs, and every value its comments state is what it computes."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    return re.search(r"## Quickstart\n\n```python\n(.*?)```", README.read_text(), re.S)[1]


def _stated(comment: str):
    """The value a comment states (its text up to ';' or a further '#'), or
    None when the comment is prose."""
    text = re.split(r";|\s#", comment, maxsplit=1)[0].strip()
    try:
        return eval(text, {"__builtins__": {}, "Fraction": Fraction})
    except (SyntaxError, NameError):
        return None


def test_quickstart_states_what_it_computes():
    block = _quickstart()
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(compile(source, "README.md", "exec"), namespace)
            continue
        value = eval(compile(source, "README.md", "eval"), namespace)
        # The comment on the statement's last line, or on the line after it.
        comments = [lines[node.end_lineno - 1][node.end_col_offset:]]
        if node.end_lineno < len(lines):
            comments.append(lines[node.end_lineno])
        for comment in comments:
            comment = comment.strip()
            if comment.startswith("#") and (stated := _stated(comment[1:])) is not None:
                assert repr(value) == repr(stated), source
                checked.append(stated)
                break
    assert checked == [Fraction(21, 1), [{"lo": "1", "hi": None}], 0.5]
