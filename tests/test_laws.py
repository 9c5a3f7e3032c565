"""The exact-tail assertion of ``laws`` on counts whose tails are known by hand."""

import pytest
from laws import assert_counts, oracles

# the two-sided tails 2 min(P(K <= k), P(K >= k)) of K ~ Binomial(8, 1/2),
# in 256ths: the cumulative counts are 1, 9, 37, 93, 163, 219, 247, 255, 256
BINOMIAL_8_TAILS = (2, 18, 74, 186, 256, 186, 74, 18, 2)


def coins(heads, flips):
    return oracles.Count("heads", heads, lambda z: (1 + z) / 2, flips, 0.5)


@pytest.mark.parametrize("heads", range(9))
def test_binomial_tails_by_hand(heads):
    tail = BINOMIAL_8_TAILS[heads] / 256
    assert oracles.sum_tail([coins(heads, 8)]) == pytest.approx(tail, rel=1e-12)
    assert_counts([coins(heads, 8)], tail * (1 - 1e-9))
    with pytest.raises(AssertionError, match="two-sided tail"):
        assert_counts([coins(heads, 8)], tail * (1 + 1e-9))


def test_counts_are_summed_before_the_tail():
    # 3 heads of 4 flips and 4 of 4 are 7 heads of 8 flips
    counts = [coins(3, 4), coins(4, 4)]
    assert oracles.sum_tail(counts) == pytest.approx(18 / 256, rel=1e-12)
    assert_counts(counts, 17 / 256)
    with pytest.raises(AssertionError, match="heads 7 vs expected 4"):
        assert_counts(counts, 19 / 256)
