from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

from spincorr.sequences import (
    PAIR_OF_ALIAS,
    BitSeq,
    CorrSeq,
    alphabet,
    apply_map,
    correlate,
    count_symbols,
    render,
)

BIT_MESSAGE = "bit sequence elements must be 0 or 1"
SYMBOL_MESSAGE = "every symbol must be a 2-tuple of bits"


def bitseq(text):
    return BitSeq(tuple(map(int, text)))


def corr4(text):
    return CorrSeq(2, tuple(PAIR_OF_ALIAS[alias] for alias in text))


def counts4(a, b, c, d):
    """The counts of A, B, C and D, in the alphabet(2) order count_symbols gives."""
    return (a, d, c, b)


bits = st.integers(min_value=0, max_value=1)
bitseqs = st.builds(
    BitSeq, st.lists(bits, min_size=1, max_size=32).map(tuple)
)
bitseq_pairs = st.lists(
    st.tuples(bits, bits), min_size=1, max_size=32
).map(
    lambda rows: (
        BitSeq(tuple(r[0] for r in rows)),
        BitSeq(tuple(r[1] for r in rows)),
    )
)


class TestValidation:
    @pytest.mark.parametrize(
        "make, message",
        [
            pytest.param(lambda: BitSeq((0, 2)), BIT_MESSAGE, id="bit-2"),
            pytest.param(lambda: BitSeq((None,)), BIT_MESSAGE, id="bit-none"),
            pytest.param(lambda: BitSeq(("1",)), BIT_MESSAGE, id="bit-string"),
            pytest.param(lambda: BitSeq(([0],)), BIT_MESSAGE, id="bit-unhashable"),
            pytest.param(lambda: BitSeq((0, 1, [1])), BIT_MESSAGE, id="bit-unhashable-last"),
            pytest.param(lambda: BitSeq((0, -1)), BIT_MESSAGE, id="bit-minus-1"),
            pytest.param(lambda: BitSeq((0, 0.5)), BIT_MESSAGE, id="bit-half"),
            pytest.param(lambda: BitSeq(((1,),)), BIT_MESSAGE, id="bit-tuple"),
            pytest.param(lambda: BitSeq((b"\x01",)), BIT_MESSAGE, id="bit-bytes"),
            pytest.param(lambda: CorrSeq(2, ((0, 1, 0),)), SYMBOL_MESSAGE, id="symbol-length"),
            pytest.param(lambda: CorrSeq(2, (([0], 1),)), SYMBOL_MESSAGE,
                         id="symbol-unhashable"),
            pytest.param(lambda: CorrSeq(2, ((0, 1), ([1], 0))), SYMBOL_MESSAGE,
                         id="symbol-unhashable-last"),
            pytest.param(lambda: CorrSeq(2, ((0, 2),)), SYMBOL_MESSAGE, id="symbol-bit-2"),
        ],
    )
    def test_rejected(self, make, message):
        with pytest.raises(ValueError) as excinfo:
            make()
        assert excinfo.type is ValueError
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("values", [(True, 0), (1.0,)])
    def test_accepted_bits_kept_as_given(self, values):
        assert BitSeq(values).bits == values

    @pytest.mark.parametrize("symbol", [(True, 0), (1.0, 0)])
    def test_accepted_symbols_kept_as_given(self, symbol):
        assert CorrSeq(2, (symbol, [0, 1])).symbols == (symbol, (0, 1))

    # an accepted element after an equal int is stored as an int too
    @pytest.mark.parametrize(
        "make, text, stored",
        [
            pytest.param(lambda: BitSeq((1.0, 0)), "10", lambda s: s.bits, id="bit-float"),
            pytest.param(lambda: BitSeq((True, 0)), "10", lambda s: s.bits, id="bit-bool"),
            pytest.param(lambda: BitSeq((1, 0j)), "10", lambda s: s.bits, id="bit-complex"),
            pytest.param(lambda: BitSeq((0, False)), "00", lambda s: s.bits,
                         id="bit-false-after-0"),
            pytest.param(lambda: BitSeq((0, 0.0)), "00", lambda s: s.bits,
                         id="bit-float-after-0"),
            pytest.param(lambda: BitSeq((1, 1.0)), "11", lambda s: s.bits,
                         id="bit-float-after-1"),
            pytest.param(lambda: BitSeq((1, 1 + 0j)), "11", lambda s: s.bits,
                         id="bit-complex-after-1"),
            pytest.param(lambda: CorrSeq(1, ((1.0,), (0,))), "10",
                         lambda s: [b for sym in s.symbols for b in sym], id="symbol-float"),
            pytest.param(lambda: CorrSeq(2, ((1, 0), (1, 0.0))), "CC",
                         lambda s: [b for sym in s.symbols for b in sym],
                         id="symbol-float-after-0"),
        ],
    )
    def test_accepted_elements_stored_as_int(self, make, text, stored):
        seq = make()
        assert (str(seq) if isinstance(seq, BitSeq) else render(seq)) == text
        assert all(type(b) is int for b in stored(seq))


class TestCorrelate:
    def test_worked_base4_example(self):
        c = correlate([bitseq("100101"), bitseq("001100")])
        assert render(c) == "CADBAC"

    def test_self_correlation_has_no_mismatched_rows(self):
        s = bitseq("1011001")
        _, d, c, _ = count_symbols(correlate([s, s]))
        assert c == 0 and d == 0

    def test_single_row(self):
        c = correlate([bitseq("1"), bitseq("0")])
        assert c.symbols == ((1, 0),)
        assert render(c) == "C"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            correlate([bitseq("10"), bitseq("100")])

    def test_needs_two_inputs(self):
        with pytest.raises(ValueError):
            correlate([bitseq("10")])

    def test_order_three(self):
        c = correlate([bitseq("10"), bitseq("01"), bitseq("11")])
        assert c.order == 3
        assert c.symbols == ((1, 0, 1), (0, 1, 1))


class TestCountSymbols:
    def test_worked_example(self):
        counts = count_symbols(corr4("CADBAC"))
        assert counts == counts4(2, 1, 2, 1)

    def test_all_one_symbol(self):
        counts = count_symbols(corr4("AAAAA"))
        assert counts == counts4(5, 0, 0, 0)

    def test_alphabet_keys_in_order(self):
        counts = count_symbols(CorrSeq(2, ((True, 0), (1, 0), (0, 0))))
        # 00, 01, 10, 11: A, D, C, B
        assert counts == (1, 0, 2, 0)
        assert all(type(k) is int for k in counts)

    def test_base8_triple(self):
        c = CorrSeq(3, ((1, 1, 0), (1, 1, 1), (1, 0, 0), (0, 1, 1)))
        # one each of 011, 100, 110 and 111
        assert count_symbols(c) == (0, 0, 0, 1, 1, 0, 1, 1)

    @given(pair=bitseq_pairs)
    def test_exchange_swaps_c_and_d(self, pair):
        a, b = pair
        ab = count_symbols(correlate([a, b]))
        ba = count_symbols(correlate([b, a]))
        # C and D are the middle two in alphabet order
        assert ba == (ab[0], ab[2], ab[1], ab[3])

    @pytest.mark.parametrize("d, n_max", [(1, 8), (2, 5), (3, 3)])
    def test_equals_completed_counter(self, d, n_max):
        """The last count is derived, not counted; it must still equal a
        Counter's, for every sequence, in alphabet order."""
        for n in range(1, n_max + 1):
            for symbols in product(alphabet(d), repeat=n):
                c = CorrSeq(d, symbols)
                counter = Counter(c.symbols)
                expected = tuple(counter[sym] for sym in alphabet(d))
                assert count_symbols(c) == expected, c

    @given(pair=bitseq_pairs)
    def test_totals_equal_n(self, pair):
        a, b = pair
        assert sum(count_symbols(correlate([a, b]))) == len(a)


class TestApplyMap:
    def test_worked_map_example(self):
        out = apply_map(corr4("AACBBA"), corr4("BACAAD"))
        assert render(out) == "BAABBD"

    def test_identity_map(self):
        x = corr4("CADBAC")
        assert apply_map(x, corr4("AAAAAA")) == x

    def test_self_inverse(self):
        x = corr4("CADBAC")
        assert render(apply_map(x, x)) == "AAAAAA"

    def test_mismatch_errors(self):
        with pytest.raises(ValueError):
            apply_map(corr4("AB"), corr4("ABA"))
        with pytest.raises(ValueError):
            apply_map(corr4("AB"), CorrSeq(3, ((1, 1, 0), (1, 1, 1))))

    @given(
        data=st.lists(
            st.tuples(bits, bits, bits, bits), min_size=1, max_size=24
        )
    )
    def test_involution(self, data):
        x = CorrSeq(2, tuple((a, b) for a, b, _, _ in data))
        m = CorrSeq(2, tuple((c, d) for _, _, c, d in data))
        assert apply_map(apply_map(x, m), m) == x


class FakeSeq:
    """Duck-typed stand-in that correlate and apply_map accept but must
    validate, since nothing vouches for its elements."""

    def __init__(self, bits=None, order=None, symbols=None):
        self.bits, self.order, self.symbols = bits, order, symbols

    def __len__(self):
        return len(self.bits if self.bits is not None else self.symbols)


def assert_same_as_validated(c):
    validated = CorrSeq(c.order, c.symbols)
    assert c == validated
    assert hash(c) == hash(validated)
    assert str(c) == str(validated)
    assert repr(c) == repr(validated)
    assert all(type(b) is int for sym in c.symbols for b in sym)


class TestResultsAreValidated:
    """correlate and apply_map build their results with CorrSeq, from
    inputs of any type; each result equals the CorrSeq validated again from
    its own fields."""

    @given(pair=bitseq_pairs)
    def test_correlate_order_two(self, pair):
        assert_same_as_validated(correlate(list(pair)))

    def test_correlate_order_three_and_coerced_inputs(self):
        # BitSeq((True, 1.0)) stores ints, so its columns are valid symbols
        seqs = [BitSeq((True, 0)), BitSeq((1.0, 1)), bitseq("01")]
        assert_same_as_validated(correlate(seqs))
        assert_same_as_validated(correlate(seqs[:2]))

    @given(
        data=st.lists(st.tuples(bits, bits, bits, bits), min_size=1, max_size=24)
    )
    def test_apply_map(self, data):
        x = CorrSeq(2, tuple((a, b) for a, b, _, _ in data))
        m = CorrSeq(2, tuple((c, d) for _, _, c, d in data))
        assert_same_as_validated(apply_map(x, m))

    @given(
        data=st.lists(st.tuples(*[bits] * 20), min_size=1, max_size=24)
    )
    def test_apply_map_order_three(self, data):
        # order 3 and every other order from 1 to 10, against a bitwise XOR
        for order in range(1, 11):
            x = CorrSeq(order, tuple(row[:order] for row in data))
            m = CorrSeq(order, tuple(row[10 : 10 + order] for row in data))
            mapped = apply_map(x, m)
            assert_same_as_validated(mapped)
            assert mapped.symbols == tuple(
                tuple(a ^ b for a, b in zip(row[:order], row[10 : 10 + order]))
                for row in data
            )

    def test_apply_map_above_table_order(self):
        x = CorrSeq(9, ((1,) * 9, (0,) * 9))
        m = CorrSeq(9, ((1, 0) * 4 + (1,), (0, 1) * 4 + (0,)))
        mapped = apply_map(x, m)
        assert_same_as_validated(mapped)
        assert mapped.symbols == ((0, 1) * 4 + (0,), (0, 1) * 4 + (0,))

    def test_other_inputs_still_validated(self):
        with pytest.raises(ValueError, match=SYMBOL_MESSAGE):
            correlate([bitseq("10"), FakeSeq(bits=(0, 2))])
        with pytest.raises(ValueError, match=SYMBOL_MESSAGE):
            apply_map(FakeSeq(order=2, symbols=((0, 2),)), corr4("A"))
        # a 3-bit symbol in an order-2 input is refused, not truncated
        with pytest.raises(ValueError, match=SYMBOL_MESSAGE):
            apply_map(FakeSeq(order=2, symbols=((1, 0, 1),)), corr4("A"))
        with pytest.raises(ValueError, match=SYMBOL_MESSAGE):
            apply_map(corr4("A"), FakeSeq(order=2, symbols=((1, 0, 1),)))
        # a bit CorrSeq accepts is accepted, and stored as an int
        mapped = apply_map(FakeSeq(order=2, symbols=((1.0, 0),)), corr4("A"))
        assert mapped == corr4("C")
        assert_same_as_validated(mapped)
        assert apply_map(corr4("B"), FakeSeq(order=2, symbols=((True, 0.0),))) == corr4("D")

    def test_counted_inputs_validated(self):
        # count_symbols derives its last count, so a symbol outside the
        # alphabet must raise, not be counted
        from spincorr.quantum_numbers import qn4_of_corrseq

        for symbols in (((0, 2),), ((1, 0, 1),), ((0, 0), (1,))):
            with pytest.raises(ValueError, match=SYMBOL_MESSAGE):
                count_symbols(FakeSeq(order=2, symbols=symbols))
            with pytest.raises(ValueError, match=SYMBOL_MESSAGE):
                qn4_of_corrseq(FakeSeq(order=2, symbols=symbols))
        # a bit CorrSeq accepts is counted as that int
        assert count_symbols(FakeSeq(order=2, symbols=((1.0, True),))) == counts4(0, 1, 0, 0)


class TestRecordTypes:
    """BitSeq and CorrSeq are validated named tuples, as pathcount.Priors
    is: they equal the plain tuple of their fields, every route to a new
    record validates it, and len() is the sequence length."""

    def test_bitseq(self):
        s = bitseq("101")
        assert repr(s) == "BitSeq(bits=(1, 0, 1))"
        assert len(s) == 3
        assert s == ((1, 0, 1),)
        assert hash(s) == hash(((1, 0, 1),))
        with pytest.raises(AttributeError):
            s.bits = (0,)
        with pytest.raises(AttributeError):
            s.extra = 1
        replaced = s._replace(bits=(True, 0.0))
        assert replaced == bitseq("10")
        assert all(type(b) is int for b in replaced.bits)
        assert BitSeq._make([(1, 0, 1)]) == s
        with pytest.raises(ValueError, match=BIT_MESSAGE):
            s._replace(bits=(0, 2))
        with pytest.raises(ValueError, match="length n >= 1"):
            BitSeq._make([()])

    def test_corrseq(self):
        c = corr4("CA")
        assert repr(c) == "CorrSeq(order=2, symbols=((1, 0), (0, 0)))"
        assert len(c) == 2
        assert c == (2, ((1, 0), (0, 0)))
        assert hash(c) == hash((2, ((1, 0), (0, 0))))
        with pytest.raises(AttributeError):
            c.order = 3
        with pytest.raises(AttributeError):
            c.extra = 1
        assert c._replace(symbols=((0, 1),)) == corr4("D")
        assert CorrSeq._make([2, ((1, 0), (0, 0))]) == c
        with pytest.raises(ValueError, match="every symbol must be a 3-tuple of bits"):
            c._replace(order=3)
        with pytest.raises(ValueError, match="correlation order must be positive"):
            CorrSeq._make([0, ((1, 0),)])


class TestTextForms:
    @pytest.mark.parametrize(
        "c, text",
        [
            (CorrSeq(1, ((1,), (0,), (0,), (1,), (0,), (1,))), "100101"),
            (CorrSeq(2, ((1, 0), (0, 0), (0, 1), (1, 1), (0, 0), (1, 0))), "CADBAC"),
            (CorrSeq(3, ((1, 1, 0), (1, 1, 1), (1, 0, 0), (0, 1, 1))), "110,111,100,011"),
        ],
        ids=["100101", "CADBAC", "110,111,100,011"],
    )
    def test_render(self, c, text):
        # the triple and map checks print sequences in this form
        assert render(c) == text
        assert str(c) == text

    def test_bitseq_round_trip(self):
        assert str(bitseq("100101")) == "100101"
