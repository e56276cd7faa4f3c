"""README's "Library tour" runs as written, so the documented API cannot
drift from the code unnoticed."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md: Library tour", "exec"), {})
    assert float(capsys.readouterr().out) < 1e-13
