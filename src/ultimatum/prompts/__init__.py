"""Versioned prompt templates.

Templates live next to this module as plain text files; manifest.json
records which version of each template is active. Every string sent to a
model is rendered here so a run can report the exact prompt text it used.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

_ROUND_WORDS = {
    1: "one", 2: "two", 3: "three", 4: "four", 5: "five",
    6: "six", 7: "seven", 8: "eight", 9: "nine", 10: "ten",
}


def rounds_word(rounds: int) -> str:
    """The round count as prompt text: 5 -> "five", 12 -> "12"."""
    return _ROUND_WORDS.get(rounds, str(rounds))


@lru_cache(maxsize=1)
def manifest() -> dict:
    with resources.files(__package__).joinpath("manifest.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    entry = manifest()["templates"].get(name)
    if entry is None:
        raise KeyError(f"unknown prompt template {name!r}")
    path = resources.files(__package__).joinpath(entry["file"])
    return path.read_text(encoding="utf-8").strip()


def render(template: str, /, **slots) -> str:
    """Fill a template's substitution slots; unknown slots are an error."""
    return load_template(template).format(**slots)
