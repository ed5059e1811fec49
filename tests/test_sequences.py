import inspect

import pytest
from hypothesis import given, strategies as st

from spincorr.errors import BudgetExceededError
from spincorr.sequences import (
    BitSeq,
    CorrSeq,
    apply_map,
    correlate,
    count_symbols,
    enumerate_sequences,
    parse,
    render,
)

A, B, C, D = (0, 0), (1, 1), (1, 0), (0, 1)

BIT_MESSAGE = "bit sequence elements must be 0 or 1"
SYMBOL_MESSAGE = "every symbol must be a 2-tuple of bits"


def bitseq(text):
    return BitSeq.from_string(text)


def corr4(text):
    return parse(text)


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
        counts = count_symbols(correlate([s, s]))
        assert counts[C] == 0 and counts[D] == 0

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
        assert counts == {A: 2, B: 1, C: 2, D: 1}

    def test_all_one_symbol(self):
        counts = count_symbols(corr4("AAAAA"))
        assert counts == {A: 5, B: 0, C: 0, D: 0}

    def test_alphabet_keys_in_order(self):
        counts = count_symbols(CorrSeq(2, ((True, 0), (1, 0), (0, 0))))
        assert list(counts.items()) == [(A, 1), (D, 0), (C, 2), (B, 0)]
        assert all(type(b) is int for sym in counts for b in sym)

    def test_base8_triple(self):
        c = parse("110,111,100,011")
        counts = count_symbols(c)
        assert counts[(1, 1, 0)] == 1
        assert counts[(1, 1, 1)] == 1
        assert counts[(1, 0, 0)] == 1
        assert counts[(0, 1, 1)] == 1
        assert sum(counts.values()) == 4

    @given(pair=bitseq_pairs)
    def test_exchange_swaps_c_and_d(self, pair):
        a, b = pair
        ab = count_symbols(correlate([a, b]))
        ba = count_symbols(correlate([b, a]))
        assert ab[C] == ba[D] and ab[D] == ba[C]
        assert ab[A] == ba[A] and ab[B] == ba[B]

    @given(pair=bitseq_pairs)
    def test_totals_equal_n(self, pair):
        a, b = pair
        assert sum(count_symbols(correlate([a, b])).values()) == len(a)


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
            apply_map(corr4("AB"), parse("110,111"))

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


class TestTrustedResults:
    """correlate and apply_map skip validating what they build from plain
    BitSeq/CorrSeq inputs; the results must equal the validated ones."""

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

    def test_trusted_constructors_equal_validated(self):
        assert BitSeq._trusted((1, 0, 1)) == bitseq("101")
        assert hash(BitSeq._trusted((1, 0, 1))) == hash(bitseq("101"))
        assert str(BitSeq._trusted((1, 0, 1))) == "101"
        assert_same_as_validated(CorrSeq._trusted(2, ((1, 0), (0, 0))))

    def test_other_inputs_still_validated(self):
        with pytest.raises(ValueError, match=SYMBOL_MESSAGE):
            correlate([bitseq("10"), FakeSeq(bits=(0, 2))])
        with pytest.raises(ValueError, match=SYMBOL_MESSAGE):
            apply_map(FakeSeq(order=2, symbols=((0, 2),)), corr4("A"))


class TestEnumerate:
    @pytest.mark.parametrize("n,d,expected", [(3, 1, 8), (1, 3, 8), (2, 2, 16)])
    def test_counts(self, n, d, expected):
        seqs = list(enumerate_sequences(n, d))
        assert len(seqs) == expected
        assert len(set(seqs)) == expected

    def test_lexicographic_and_deterministic(self):
        first = [render(c) for c in enumerate_sequences(2, 1)]
        second = [render(c) for c in enumerate_sequences(2, 1)]
        assert first == second == ["00", "01", "10", "11"]

    @pytest.mark.parametrize("n,d", [(4, 1), (3, 2), (2, 3), (12, 1)])
    def test_no_duplicates(self, n, d):
        seqs = list(enumerate_sequences(n, d))
        assert len(set(seqs)) == len(seqs) == 2 ** (d * n)

    def test_budget(self):
        # 2^25 sequences: one more doubling than ENUM_CAP allows
        with pytest.raises(BudgetExceededError, match="budget"):
            next(enumerate_sequences(25, 1))


class TestTextForms:
    @pytest.mark.parametrize(
        "text", ["100101", "CADBAC", "110,111,100,011"]
    )
    def test_round_trip(self, text):
        assert render(parse(text)) == text

    @pytest.mark.parametrize("text", ["AX", "A1"])
    def test_bad_alias_text_raises_value_error(self, text):
        with pytest.raises(ValueError) as excinfo:
            parse(text)
        assert excinfo.type is ValueError
        assert repr(text) in str(excinfo.value)

    def test_text_is_the_only_parameter(self):
        # "01" is read as bits: no order= argument can make it an alias text
        assert list(inspect.signature(parse).parameters) == ["text"]
        assert parse("01") == CorrSeq(1, ((0,), (1,)))
        with pytest.raises(TypeError):
            parse("01", order=2)

    def test_bitseq_round_trip(self):
        assert str(bitseq("100101")) == "100101"
