"""The README's library example runs against the current API, and the
README names no private identifier."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The ```python block under the README's "Library example" heading."""
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    names = {}
    exec(compile(library_example(), str(README), "exec"), names)
    assert capsys.readouterr().out.strip()
    # four symmetric centers: the estimates agree on their mean, the origin
    assert np.abs(names["state"].x).max() < 1e-6
    assert names["trace"][-1].variance < 1e-12


def test_readme_names_no_private_identifier():
    # README states the contract; private names belong to the docstrings
    private = re.findall(r"\b_[A-Za-z]\w*", README.read_text())
    assert not private, private
