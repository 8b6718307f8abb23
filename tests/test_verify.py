"""Each ``oracle_suite`` entry as a test of its own, so a failing value oracle
shows by name in a plain pytest run. The acceptance criteria read the same
entries; nothing here re-computes an oracle value.
"""

from collections import Counter

import pytest

from edmb.verify import oracle_suite

ORACLES = oracle_suite()


@pytest.mark.parametrize("result", ORACLES, ids=lambda r: r.name)
def test_oracle_entry_within_bound(result):
    assert result.ok, result.line()


def test_oracle_names_unique():
    # the criteria index entries by name; a repeated name would hide one
    repeated = [name for name, n in Counter(r.name for r in ORACLES).items() if n > 1]
    assert not repeated
