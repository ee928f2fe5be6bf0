"""README's "Library tour" block runs as written, statement by statement in
one namespace, and gives the results its comments state."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_values() -> list:
    """(source, value) of each top-level statement of the tour block, run in
    order: an expression's value, or the value an assignment binds."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            values.append((source, eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)))
            continue
        exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
        if isinstance(stmt, ast.Assign):
            values.append((source, namespace[stmt.targets[0].id]))
    return values


def test_the_library_tour_gives_what_its_comments_say():
    values = tour_values()

    def value(start: str):
        (found,) = [v for source, v in values if source.startswith(start)]
        return found

    lat = value("lat = hnf(")
    assert lat.columns == ((2, 1), (0, 2)) and lat.index == 4
    assert value("ex2.free((3, 1))") is True
    assert value("a = zero_window_by_crt(") == (20, 24)
    assert value('decide(preset("squarefree-1d")).status') == "Proximal"
    assert value("a = principal(ring, (2, 1))").norm == 5
