"""An in-process chat-completion endpoint for the live and replay workloads.

`FakeChatEndpoint` stands in for the `requests.Session` that
`ultimatum.agents.HttpGateway` posts through. Each request is JSON-encoded
as it would be on the wire, and each reply is a JSON body the gateway
decodes. Nothing leaves the process.

Everything the endpoint does is a pure function of the request body and
the seed, so two worker threads see the same replies in any order:

* latency: most requests are fast, a seeded few are slow;
* reply class: most replies carry an OFFER:/DECISION:/STRATEGY: marker, a
  share is marker-free prose the program must still read, a share is
  malformed once (the corrective re-prompt succeeds) and a few are
  malformed twice (the run fails);
* a few requests are answered 503 on their first attempt and succeed on
  the gateway's retry.

The only state is which requests have already had their 503 (cleared by
`reset`) and, when `vary_share` is set, how often each opening request has
been seen: that imitates sampling at a non-zero temperature, where the
same request can get a different reply the next time it is sent.
"""

from __future__ import annotations

import collections
import hashlib
import json as _json
import re
import threading
import time
from dataclasses import dataclass

CORRECTION_PREFIX = "Your reply must be"

# Reply classes, in the order their shares are laid out on [0, 1).
MALFORMED_TWICE = "malformed_twice"
MALFORMED_ONCE = "malformed_once"
MARKER_FREE = "marker_free"
MARKER = "marker"


@dataclass(frozen=True)
class FaultMix:
    """Designed shares of the endpoint's behaviours.

    The reply-class shares apply to action requests (offers and
    decisions); strategy requests only use `marker_free`. `http_503` and
    `slow` apply to every request, independently of the reply class.
    """

    malformed_twice: float = 0.004
    malformed_once: float = 0.05
    marker_free: float = 0.15
    http_503: float = 0.03
    slow: float = 0.04


@dataclass(frozen=True)
class Latency:
    """Service time: fast_s plus up to jitter_s, or slow_s for slow requests."""

    fast_s: float = 0.002
    jitter_s: float = 0.001
    slow_s: float = 0.008


NO_LATENCY = Latency(0.0, 0.0, 0.0)


class FakeResponse:
    """The part of `requests.Response` that HttpGateway reads."""

    def __init__(self, status_code: int, body: bytes) -> None:
        self.status_code = status_code
        self._body = body

    @property
    def text(self) -> str:
        return self._body.decode("utf-8")

    def json(self):
        return _json.loads(self._body)


def _unit(seed: int, *parts: object) -> float:
    """A uniform number in [0, 1) fixed by the seed and the parts."""
    key = ":".join(str(p) for p in (seed, *parts)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") / 2.0**64


def _money(cents: int) -> str:
    return f"${cents // 100}" if cents % 100 == 0 else f"${cents / 100:.2f}"


_AMOUNT_RE = re.compile(r"\$(\d+)(?:\.(\d{2}))?")
_BIO_RE = re.compile(r"\b(Proposer|Receiver) is (fair|greedy)\.")
_GAME_RE = re.compile(r"the ultimatum game (\w+) times with (\$[\d.]+) at stake")
_ROUND_RE = re.compile(r"Round (\d+) of (\d+)\.")
_SINGLE_RE = re.compile(
    r"for a (fair|greedy) proposer and a (fair|greedy) receiver in playing the "
    r"ultimatum game (\w+) times with (\$[\d.]+)\."
)
_WORDS = {w: n for n, w in enumerate(
    "zero one two three four five six seven eight nine ten".split())}


# Malformed replies name no action; each class has its own wording so a
# re-prompt can tell from the conversation which one it follows.
_MALFORMED_REPLIES = {
    MALFORMED_ONCE: "Let me think about what would be best here before I answer.",
    MALFORMED_TWICE: "I would rather not say just yet.",
}


def _cents(text: str) -> int:
    m = _AMOUNT_RE.search(text)
    if m is None:
        raise ValueError(f"no amount in {text!r}")
    return int(m.group(1)) * 100 + int(m.group(2) or 0)


def _rounds(word: str) -> int:
    return _WORDS[word] if word in _WORDS else int(word)


class FakeChatEndpoint:
    """Answers chat-completion posts like a small, imperfect model."""

    def __init__(
        self,
        seed: int,
        mix: FaultMix = FaultMix(),
        latency: Latency = Latency(),
        vary_share: float = 0.0,
    ) -> None:
        self.seed = seed
        self.mix = mix
        self.latency = latency
        self.vary_share = vary_share
        self._lock = threading.Lock()
        self._failed_once: set[str] = set()
        self._seen: collections.Counter = collections.Counter()
        self.posts = 0

    def reset(self) -> None:
        """Forget which requests had their 503 and how often each was seen."""
        with self._lock:
            self._failed_once.clear()
            self._seen.clear()

    # -- the requests.Session surface -------------------------------------

    def post(self, url, json=None, headers=None, timeout=None) -> FakeResponse:
        body = _json.dumps(json, sort_keys=True, separators=(",", ":")).encode("utf-8")
        request = _json.loads(body)
        digest = hashlib.sha256(body).hexdigest()
        with self._lock:
            self.posts += 1
            first_attempt = digest not in self._failed_once
            fail = first_attempt and self.answers_503(digest)
            if fail:
                self._failed_once.add(digest)
        delay = self.delay_s(digest)
        if delay:
            time.sleep(delay)
        if fail:
            return FakeResponse(503, b'{"error":"overloaded"}')
        content = self.reply(request["messages"], digest)
        reply = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        return FakeResponse(200, _json.dumps(reply).encode("utf-8"))

    # -- pure decisions ----------------------------------------------------

    def delay_s(self, digest: str) -> float:
        lat = self.latency
        if _unit(self.seed, "slow", digest) < self.mix.slow:
            return lat.slow_s
        return lat.fast_s + lat.jitter_s * _unit(self.seed, "jitter", digest)

    def answers_503(self, digest: str) -> bool:
        return _unit(self.seed, "503", digest) < self.mix.http_503

    def reply_class(self, key: str) -> str:
        u = _unit(self.seed, "class", key)
        for name, share in (
            (MALFORMED_TWICE, self.mix.malformed_twice),
            (MALFORMED_ONCE, self.mix.malformed_once),
            (MARKER_FREE, self.mix.marker_free),
        ):
            if u < share:
                return name
            u -= share
        return MARKER

    def _reply_key(self, messages: list[dict], digest: str) -> str:
        """The key replies are drawn from: the digest, or an occurrence variant.

        Only the opening ask of a conversation varies. Later asks carry the
        earlier replies, so they repeat only when the whole game did.
        """
        if not self.vary_share or any(m["role"] == "assistant" for m in messages):
            return digest
        with self._lock:
            k = self._seen[digest]
            self._seen[digest] += 1
        if k and _unit(self.seed, "vary", digest, k) < self.vary_share:
            return f"{digest}#{k}"
        return digest

    # -- reply text --------------------------------------------------------

    def reply(self, messages: list[dict], digest: str) -> str:
        last = messages[-1]["content"]
        key = self._reply_key(messages, digest)
        single = _SINGLE_RE.search(last)
        if single and len(messages) == 1:
            return self._single_model_log(single, key)
        system = messages[0]["content"]
        bio, game = _BIO_RE.search(system), _GAME_RE.search(system)
        role, persona = bio.group(1).lower(), bio.group(2)
        pot = _cents(game.group(2))
        if 'Reply "STRATEGY:"' in last:
            return self._strategy(role, persona, pot, _rounds(game.group(1)), key)
        rnd = _ROUND_RE.search(last)
        round_no, rounds = int(rnd.group(1)), int(rnd.group(2))
        cls = self.reply_class(key)
        if len(messages) >= 3 and messages[-2]["content"].startswith(CORRECTION_PREFIX):
            # A corrective re-prompt: it fails again only after a
            # malformed-twice reply, which the conversation carries.
            if messages[-3]["content"] == _MALFORMED_REPLIES[MALFORMED_TWICE]:
                cls = MALFORMED_TWICE
            elif cls in _MALFORMED_REPLIES:
                cls = MARKER
        if cls in _MALFORMED_REPLIES:
            return _MALFORMED_REPLIES[cls]
        u = _unit(self.seed, "value", key)
        if role == "proposer":
            base = 0.45 if persona == "fair" else 0.2
            offer = max(1, min(pot, round(pot * (base + 0.1 * u))))
            if cls == MARKER_FREE:
                return f"I would like to offer {_money(offer)} this round."
            return f"OFFER: {_money(offer)}"
        offer = _cents(last.split("offers you", 1)[1])
        threshold = (0.35 if persona == "fair" else 0.5) + 0.1 * u
        accept = offer >= pot * threshold or (round_no == rounds and offer > 0)
        if cls == MARKER_FREE:
            return "Fine, I accept your offer." if accept else "No deal, I reject that split."
        return f"DECISION: {'accept' if accept else 'reject'}"

    def _strategy_text(self, role: str, persona: str, pot: int, rounds: int, u: float) -> str:
        step = max(1, pot // 20)
        if role == "proposer":
            opening = pot // 2 if persona == "fair" else pot // 5
            text = f"I will offer {_money(opening)} in the first round."
            if u >= 0.2:
                text += " If an offer is accepted, I will keep the offer the same in the next round."
            text += f" If an offer is rejected, I will increase the offer by {_money(step)} in the next round."
            return text
        threshold = 2 * pot // 5 if persona == "fair" else 11 * pot // 20
        if u < 0.15:
            threshold = pot // 4
        if rounds > 1:
            return (
                f"I will only accept offers of at least {_money(threshold)} in rounds 1 "
                f"through {rounds - 1}. In the final round, I will accept any non-zero "
                "offer rather than walk away with nothing."
            )
        return f"I will only accept offers of at least {_money(threshold)}."

    def _strategy(self, role: str, persona: str, pot: int, rounds: int, key: str) -> str:
        u = _unit(self.seed, "strategy", key)
        text = self._strategy_text(role, persona, pot, rounds, u)
        if self.reply_class(key) == MARKER_FREE:
            return text
        return f"STRATEGY: {text}"

    def _single_model_log(self, match: re.Match, key: str) -> str:
        proposer, receiver = match.group(1), match.group(2)
        rounds, pot = _rounds(match.group(3)), _cents(match.group(4))
        u = _unit(self.seed, "single", key)
        lines = [
            f"STRATEGY (Proposer): {self._strategy_text('proposer', proposer, pot, rounds, u)}",
            f"STRATEGY (Receiver): {self._strategy_text('receiver', receiver, pot, rounds, u)}",
        ]
        offer = pot // 2 if proposer == "fair" else pot // 5
        if u < 0.1:
            offer += max(1, pot // 20)  # opens away from its stated strategy
        step = max(1, pot // 20)
        threshold = 2 * pot // 5 if receiver == "fair" else 11 * pot // 20
        for r in range(1, rounds + 1):
            accept = offer >= threshold or (r == rounds and offer > 0)
            paid = (pot - offer, offer) if accept else (0, 0)
            lines += [
                f"ROUND {r}",
                f"OFFER: {_money(offer)}",
                f"DECISION: {'accept' if accept else 'reject'}",
                f"OUTCOME: the proposer receives {_money(paid[0])} and the receiver "
                f"receives {_money(paid[1])}",
            ]
            if not accept:
                offer = min(pot, offer + step)
        return "\n".join(lines) + "\n"
