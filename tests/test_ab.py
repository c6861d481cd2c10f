"""The summary arithmetic of ``tools/ab.py``: quartiles, complete pairs and the lower count.

The harness itself runs for minutes and stays out of this suite; these tests
load the module and check its reductions against hand-computed values.
"""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", PATH)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def test_a_single_value_is_all_three_quartiles():
    assert ab.quartiles([0.25]) == (0.25, 0.25, 0.25)


def test_summary_keeps_complete_pairs_and_counts_where_change_read_lower():
    parent = [1.0, 2.0, None, 4.0, 5.0, 3.0]
    change = [0.5, 2.0, 9.0, 3.0, None, 3.5]
    s = ab.summarize(parent, change)
    # pairs 0, 1, 3 and 5 are complete; change is lower in 0 and 3, equal in 1
    assert s["pairs"] == 4
    assert s["lower"] == 2
    # quartiles interpolated between the order statistics of each side's four values
    assert s["parent"] == (1.75, 2.5, 3.25)
    assert s["change"] == (1.625, 2.5, 3.125)


def test_a_number_no_pair_completed_has_no_quartiles():
    assert ab.summarize([1.0, None], [None, 2.0]) == {"pairs": 0}
