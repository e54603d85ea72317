import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinash.generators import make_modified_shapley
from adinash.nfg import NfgParseError, dumps, loads, nfg_roundtrip, read_nfg, write_nfg
from adinash.normalform import GameTensor

PENNIES = """NFG 1 R "Matching Pennies" { "Odd" "Even" } { 2 2 }

1 -1 -1 1 -1 1 1 -1
"""


class TestParsing:
    def test_matching_pennies(self):
        game, title, names = loads(PENNIES)
        assert title == "Matching Pennies"
        assert names == ["Odd", "Even"]
        assert game.action_counts == (2, 2)
        assert np.array_equal(game.payoffs[0], -game.payoffs[1])
        assert game.payoff(0, (0, 0)) == 1.0
        assert game.payoff(0, (1, 0)) == -1.0

    def test_first_player_varies_fastest(self):
        text = 'NFG 1 R "order" { "a" "b" } { 3 2 }\n\n1 0 2 0 3 0 4 0 5 0 6 0\n'
        game, _, _ = loads(text)
        # outcomes: (0,0) (1,0) (2,0) (0,1) (1,1) (2,1)
        assert game.payoff(0, (0, 0)) == 1.0
        assert game.payoff(0, (2, 0)) == 3.0
        assert game.payoff(0, (0, 1)) == 4.0
        assert game.payoff(0, (2, 1)) == 6.0

    def test_payoff_count_mismatch_reports_expectation(self):
        text = 'NFG 1 R "short" { "a" "b" } { 2 2 }\n\n1 2 3\n'
        with pytest.raises(NfgParseError, match=r"expected 8 values"):
            loads(text)

    def test_trailing_data_rejected(self):
        text = PENNIES + " 7"
        with pytest.raises(NfgParseError, match="trailing"):
            loads(text)

    def test_error_carries_byte_offset(self):
        text = 'NFG 1 R "x" { "a" "b" } { 2 2 }\n\n1 2 oops 4 5 6 7 8\n'
        with pytest.raises(NfgParseError) as err:
            loads(text)
        assert err.value.offset == text.index("oops")

    @pytest.mark.parametrize(
        "marked, message",
        [
            ("^", "unexpected end of input, wanted 'NFG'"),
            ("  NFG\n^", "wanted version"),
            ("NFG ^2 R", "only NFG version 1"),
            ("NFG 1 ^D", "payoff format 'R'"),
            ("NFG 1 R ^title", "expected quoted string"),
            ('NFG 1 R ^"t', "unterminated string"),
            ('NFG 1 R "t" ^[', "expected '{', found '['"),
            ('NFG 1 R "t" { "a" ^b }', "expected quoted player name"),
            ('NFG 1 R "t" { "a" "b" ^', "wanted player name or }"),
            ('NFG 1 R "t" { "a" "b" } { 2 ^x }', "expected action count"),
            ('NFG 1 R "t" { "a" "b" } { 1 1 ^', "wanted action count or }"),
            ('NFG 1 R "t" { "a" } { 2 2 }^ 1 1', "1 players but 2 action counts"),
            ('NFG 1 R "t" { } { }^', "no players declared"),
            ('NFG 1 R "t" { "a" "b" } { 1 1 }\n1 \n^', "ended early"),
            ('NFG 1 R "t" { "a" "b" } { 1 1 } 1 ^zz', "expected payoff number"),
            ('NFG 1 R "t" { "a" "b" } { 1 1 } 1 2\n ^3', "trailing data"),
        ],
    )
    def test_every_error_site_reports_its_byte_offset(self, marked, message):
        # "^" marks where the error is; it is not part of the input
        offset = marked.index("^")
        with pytest.raises(NfgParseError, match=re.escape(message)) as err:
            loads(marked.replace("^", ""))
        assert err.value.offset == offset
        assert str(err.value).endswith(f"(byte offset {offset})")

    def test_bad_header(self):
        with pytest.raises(NfgParseError):
            loads('NFG 2 R "x" { "a" } { 2 } 1 1')
        with pytest.raises(NfgParseError):
            loads('NFG 1 D "x" { "a" } { 2 } 1 1')

    def test_player_count_mismatch(self):
        with pytest.raises(NfgParseError):
            loads('NFG 1 R "x" { "a" "b" } { 2 } 1 1')


@st.composite
def small_tensors(draw):
    """2-3 players, 1-3 actions each, any finite payoffs."""
    counts = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    size = len(counts) * int(np.prod(counts))
    values = draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=size, max_size=size)
    )
    return GameTensor(np.reshape(values, (len(counts), *counts)))


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(small_tensors())
    def test_dumps_loads_returns_the_same_game(self, game):
        back, title, names = loads(dumps(game, "random"))
        assert back == game
        assert title == "random"

    def test_tensor_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        payoffs = rng.standard_normal((3, 2, 3, 2))
        game = GameTensor(payoffs)
        back, title, names = loads(dumps(game, "random"))
        assert back == game  # bit-exact through repr decimals

    def test_shapley_roundtrip(self):
        game = make_modified_shapley(0.5)
        back, _, _ = loads(dumps(game, "shapley"))
        assert back == game

    def test_file_roundtrip(self, tmp_path):
        game = make_modified_shapley(0.25)
        path = tmp_path / "shapley.nfg"
        write_nfg(str(path), game, title="shapley")
        again = nfg_roundtrip(str(path))
        assert again == game

    def test_read_write_read(self, tmp_path):
        path = tmp_path / "pennies.nfg"
        path.write_text(PENNIES)
        game, title, names = read_nfg(str(path))
        out = tmp_path / "copy.nfg"
        write_nfg(str(out), game, title=title, player_names=names)
        game2, title2, names2 = read_nfg(str(out))
        assert game2 == game and title2 == title and names2 == names
