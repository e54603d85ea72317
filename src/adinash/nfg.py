"""Gambit .nfg interchange (payoff version, header "NFG 1 R").

Payoffs are listed with the first player's action varying fastest; each
outcome contributes one payoff per player in player order. Writing uses
shortest round-trip decimal reprs, so tensor -> file -> tensor is exact.
"""

import numpy as np

from .normalform import GameTensor


class NfgParseError(ValueError):
    """Malformed .nfg input; carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class _Tokenizer:
    """Whitespace tokenizer that remembers where each token started."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def next(self, what="token"):
        """The next token and the byte offset where it starts."""
        self.skip_ws()
        if self.pos >= len(self.text):
            raise NfgParseError(f"unexpected end of input, wanted {what}", self.pos)
        start = self.pos
        if self.text[self.pos] == '"':
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos] != '"':
                self.pos += 1
            if self.pos >= len(self.text):
                raise NfgParseError("unterminated string", start)
            self.pos += 1
            return self.text[start:self.pos], start
        while self.pos < len(self.text) and not self.text[self.pos].isspace():
            self.pos += 1
        return self.text[start:self.pos], start

    def expect(self, literal):
        tok, offset = self.next(repr(literal))
        if tok != literal:
            raise NfgParseError(f"expected {literal!r}, found {tok!r}", offset)

    def string(self):
        tok, offset = self.next("quoted string")
        if not (tok.startswith('"') and tok.endswith('"')):
            raise NfgParseError(f"expected quoted string, found {tok!r}", offset)
        return tok[1:-1]

    def number(self):
        tok, offset = self.next("number")
        try:
            return float(tok)
        except ValueError:
            raise NfgParseError(f"expected payoff number, found {tok!r}", offset) from None

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)


def loads(text):
    """Parse .nfg text into (GameTensor, title, player names)."""
    tok = _Tokenizer(text)
    tok.expect("NFG")
    version, offset = tok.next("version")
    if version != "1":
        raise NfgParseError("only NFG version 1 is supported", offset)
    precision, offset = tok.next("precision")
    if precision != "R":
        raise NfgParseError("only the rational/real payoff format 'R' is supported", offset)
    title = tok.string()
    tok.expect("{")
    names = []
    while True:
        t, offset = tok.next("player name or }")
        if t == "}":
            break
        if not (t.startswith('"') and t.endswith('"')):
            raise NfgParseError(f"expected quoted player name, found {t!r}", offset)
        names.append(t[1:-1])
    tok.expect("{")
    counts = []
    while True:
        t, offset = tok.next("action count or }")
        if t == "}":
            break
        try:
            counts.append(int(t))
        except ValueError:
            raise NfgParseError(f"expected action count, found {t!r}", offset) from None
    if len(counts) != len(names):
        raise NfgParseError(
            f"{len(names)} players but {len(counts)} action counts", tok.pos
        )
    if not names:
        raise NfgParseError("no players declared", tok.pos)

    n = len(names)
    outcomes = int(np.prod(counts))
    expected = n * outcomes
    values = np.zeros(expected)
    for k in range(expected):
        if tok.at_end():
            raise NfgParseError(
                f"payoff list ended early: expected {expected} values "
                f"(players x outcomes = {n} x {outcomes}), found {k}",
                tok.pos,
            )
        values[k] = tok.number()
    if not tok.at_end():
        raise NfgParseError(
            f"trailing data after {expected} payoffs "
            f"(players x outcomes = {n} x {outcomes})",
            tok.pos,
        )

    # value layout: outcomes in first-action-fastest order, players innermost
    per_outcome = values.reshape(outcomes, n)
    payoffs = np.zeros((n, *counts))
    shape_fortran = tuple(counts)
    for i in range(n):
        payoffs[i] = per_outcome[:, i].reshape(shape_fortran, order="F")
    return GameTensor(payoffs), title, names


def dumps(game, title="game", player_names=None):
    """Serialize a GameTensor to .nfg text."""
    n = game.players
    names = list(player_names) if player_names else [f"Player{i + 1}" for i in range(n)]
    if len(names) != n:
        raise ValueError(f"need {n} player names, got {len(names)}")
    head_names = " ".join(f'"{name}"' for name in names)
    head_counts = " ".join(str(m) for m in game.action_counts)
    lines = [f'NFG 1 R "{title}" {{ {head_names} }} {{ {head_counts} }}', ""]
    flat = [
        game.payoffs[i].reshape(-1, order="F")
        for i in range(n)
    ]
    chunks = []
    for k in range(int(np.prod(game.action_counts))):
        for i in range(n):
            chunks.append(_format_payoff(flat[i][k]))
    lines.append(" ".join(chunks))
    return "\n".join(lines) + "\n"


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
