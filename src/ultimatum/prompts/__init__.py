"""Versioned prompt templates.

Templates live next to this module as plain text files; manifest.json
records which version of each template is active. Every string sent to a
model is rendered here so a run can report the exact prompt text it used.

A template's only field form is `{name}` (and `{{`/`}}` for a literal
brace). Each template is compiled once per process, at its first use,
into a function of the slots dict that returns what `str.format` would.
"""

from __future__ import annotations

import json
from functools import lru_cache

ROUND_WORDS = {
    1: "one", 2: "two", 3: "three", 4: "four", 5: "five",
    6: "six", 7: "seven", 8: "eight", 9: "nine", 10: "ten",
}


def rounds_word(rounds: int) -> str:
    """The round count as prompt text: 5 -> "five", 12 -> "12"."""
    return ROUND_WORDS.get(rounds, str(rounds))


def _resource(name: str):
    """A file of this package."""
    # Imported here: commands that render no prompt (grading, reports)
    # never load importlib.resources.
    from importlib import resources

    return resources.files(__package__).joinpath(name)


@lru_cache(maxsize=1)
def manifest() -> dict:
    with _resource("manifest.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def load_template(name: str) -> str:
    entry = manifest()["templates"].get(name)
    if entry is None:
        raise KeyError(f"unknown prompt template {name!r}")
    return _resource(entry["file"]).read_text(encoding="utf-8").strip()


def _compile(name: str, text: str):
    """A function of a slots dict that returns `text.format(**slots)`.

    It returns one f-string of adjacent literals: each literal run of `text`
    is `repr`-quoted with its braces doubled, and each field reads a numbered
    local set from `s[<repr of the slot name>]`; no template text is evaluated.
    Any other field form is refused with a ValueError naming the template.
    """
    import string  # here, like importlib.resources: only a prompt's first render needs it

    try:
        pieces = list(string.Formatter().parse(text))
    except ValueError as exc:
        raise ValueError(f"prompt template {name!r}: {exc}") from None
    numbered: dict[str, str] = {}  # slot name -> its local
    parts = []
    for literal, field, spec, conversion in pieces:
        if literal:
            parts.append("f" + repr(literal.replace("{", "{{").replace("}", "}}")))
        if field is None:
            continue
        if not field.isidentifier() or spec or conversion:
            form = field + (f"!{conversion}" if conversion else "") + (f":{spec}" if spec else "")
            raise ValueError(f"prompt template {name!r}: field {{{form}}} is not {{name}}")
        local = numbered.setdefault(field, f"_{len(numbered)}")
        parts.append(f"f'{{{local}}}'")
    lines = [f"    {local} = s[{slot!r}]" for slot, local in numbered.items()]
    body = " ".join(parts) or "''"
    source = "\n".join(["def render(s):", *lines, f"    return {body}"])
    namespace: dict = {}
    exec(compile(source, f"<prompt template {name}>", "exec"), namespace)
    return namespace["render"]


@lru_cache(maxsize=None)
def _compiled(name: str):
    return _compile(name, load_template(name))


def render(template: str, /, **slots) -> str:
    """Fill a template's `{name}` slots, compiling the template on first use.

    A slot the template names but the caller omits raises `KeyError`; a
    slot it does not name is ignored.
    """
    return _compiled(template)(slots)
