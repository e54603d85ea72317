"""Gambit .nfg interchange (payoff version, header "NFG 1 R").

The payoff list is the (players, *action counts) payoff tensor in Fortran
order: the player index varies fastest, then the first player's action, then
the second's, so outcomes run first-action-fastest with one payoff per player,
in player order, inside each. Reading and writing are each one reshape in
that order. Writing uses shortest round-trip decimal reprs, so tensor ->
file -> tensor is exact.
"""

import re

import numpy as np

from .normalform import GameTensor

# a token: a quoted string (group 1 is empty when the closing quote is
# missing) or a run of non-space characters that does not start with a quote
_TOKEN = re.compile(r'"[^"]*("?)|[^\s"]\S*')


class NfgParseError(ValueError):
    """Malformed .nfg input; carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _text(token):
    """A token's text and offset; a quote left open is an error."""
    if token[1] == "":
        raise NfgParseError("unterminated string", token.start())
    return token[0], token.start()


def _parsed(parse, what, text, offset):
    """`parse(text)`, or an error at `offset` naming `what`."""
    try:
        return parse(text)
    except ValueError:
        raise NfgParseError(f"expected {what}, found {text!r}", offset) from None


def _unquoted(text):
    if not text.startswith('"'):
        raise ValueError(text)
    return text[1:-1]


def _count(text):
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def loads(text):
    """Parse .nfg text into (GameTensor, title, player names)."""
    tokens = list(_TOKEN.finditer(text))
    at = 0

    def take(what):
        nonlocal at
        if at == len(tokens):
            raise NfgParseError(f"unexpected end of input, wanted {what}", len(text))
        at += 1
        return _text(tokens[at - 1])

    def expect(literal, what=None, message=None):
        found, offset = take(what or repr(literal))
        if found != literal:
            raise NfgParseError(message or f"expected {literal!r}, found {found!r}", offset)

    def listed(what, parse, found):
        expect("{")
        items = []
        while (item := take(f"{what} or }}"))[0] != "}":
            items.append(_parsed(parse, found, *item))
        return items

    expect("NFG")
    expect("1", "version", "only NFG version 1 is supported")
    expect("R", "precision", "only the rational/real payoff format 'R' is supported")
    title = _parsed(_unquoted, "quoted string", *take("quoted string"))
    names = listed("player name", _unquoted, "quoted player name")
    counts = listed("action count", _count, "action count")
    end = tokens[at - 1].end()
    if len(counts) != len(names):
        raise NfgParseError(f"{len(names)} players but {len(counts)} action counts", end)
    if not names:
        raise NfgParseError("no players declared", end)

    n, outcomes = len(names), int(np.prod(counts))
    expected = n * outcomes
    shape = f"(players x outcomes = {n} x {outcomes})"
    payload = tokens[at:at + expected]
    values = np.array([_parsed(float, "payoff number", *_text(t)) for t in payload], dtype=float)
    if len(values) < expected:
        raise NfgParseError(
            f"payoff list ended early: expected {expected} values {shape}, found {len(values)}",
            len(text),
        )
    if at + expected < len(tokens):
        offset = tokens[at + expected].start()
        raise NfgParseError(f"trailing data after {expected} payoffs {shape}", offset)
    return GameTensor(values.reshape((n, *counts), order="F")), title, names


def dumps(game, title="game", player_names=None):
    """Serialize a GameTensor to .nfg text."""
    n = game.players
    names = list(player_names) if player_names else [f"Player{i + 1}" for i in range(n)]
    if len(names) != n:
        raise ValueError(f"need {n} player names, got {len(names)}")
    head_names = " ".join(f'"{name}"' for name in names)
    head_counts = " ".join(str(m) for m in game.action_counts)
    payoffs = " ".join(map(_format_payoff, game.payoffs.reshape(-1, order="F")))
    return f'NFG 1 R "{title}" {{ {head_names} }} {{ {head_counts} }}\n\n{payoffs}\n'


def _format_payoff(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def read_nfg(path):
    with open(path, "r") as fh:
        return loads(fh.read())


def write_nfg(path, game, title="game", player_names=None):
    with open(path, "w") as fh:
        fh.write(dumps(game, title, player_names))


def nfg_roundtrip(path):
    """Parse, re-serialize, re-parse; error if semantics shifted.

    Returns the parsed GameTensor.
    """
    game, title, names = read_nfg(path)
    again, title2, names2 = loads(dumps(game, title, names))
    if not (game == again and title == title2 and names == names2):
        raise NfgParseError("round trip changed the game", 0)
    return game
