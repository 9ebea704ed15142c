import numpy as np
import pytest

from streamasr import ComputeLedger
from streamasr.errors import ArgumentError
from streamasr.ledger import CATEGORIES


class TestLedgerAdd:
    @pytest.mark.parametrize("category", [*CATEGORIES, "duplicate"])
    def test_books_each_category(self, category):
        ledger = ComputeLedger()
        ledger.add(category, 5)
        ledger.add(category, np.int64(2))
        ledger.add(category, 0)
        assert ledger.category_total(category) == 7 and len(ledger.steps) == 1
        assert type(ledger.category_total(category)) is int

    @pytest.mark.parametrize("category", ["total", "bogus", "", "Attention", None, 1, ["ffn"]])
    def test_unknown_category_is_argument_error(self, category):
        ledger = ComputeLedger()
        with pytest.raises(ArgumentError):
            ledger.add(category, 1)
        assert ledger.steps == []

    @pytest.mark.parametrize("macs", ["x", "5", 1.7, 2.0, True, False, None, -1,
                                      np.int64(-3), np.float64(4.0), [1]])
    def test_macs_that_are_not_a_non_negative_integer_are_argument_error(self, macs):
        ledger = ComputeLedger()
        ledger.add("attention", 3)
        with pytest.raises(ArgumentError):
            ledger.add("attention", macs)
        assert ledger.to_dict()["attention"] == 3
