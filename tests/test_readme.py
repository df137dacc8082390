"""The README's "Library example" runs as written and prints what its comments say."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_readme_library_example_prints_its_three_results():
    printed = []
    exec(library_example(), {"print": lambda *args: printed.append(args)})
    (output,), (distance,), (verdict,) = printed
    assert np.abs(output - np.diag([2 / 3, 1 / 3])).max() < 1e-12
    assert distance < 1e-10
    assert verdict == "detected"
