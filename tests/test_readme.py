"""Each Python example of README.md runs, and computes what its comments say."""

import re
from pathlib import Path

from rivercross.digraph import unrank_shortest_path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def run_block(marker):
    """Execute the one README example that contains marker; return its names."""
    (block,) = [b for b in BLOCKS if marker in b]
    names = {}
    exec(compile(block, str(README), "exec"), names)
    return names


def test_every_example_is_checked():
    assert len(BLOCKS) == 3


def test_solve_mc_and_transfer():
    names = run_block("solve_mc(")
    assert names["crossings"] == 11 and len(names["solutions"]) == 4


def test_counting_unranking_and_listing():
    names = run_block("count_shortest_paths(")
    counted = names["counted"]
    assert counted.length == 59
    assert names["first"] == unrank_shortest_path(counted, 0)
    assert len(names["solution"]) == 60


def test_species_interface():
    names = run_block("wolf_goat_cabbage()")
    assert names["crossings"] == 7 and len(names["solutions"]) == 2
