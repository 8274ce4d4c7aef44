"""Test helper: Praat's short text form of a long-form TextGrid."""

import re


def short_form(text):
    """The short text form of a long-form TextGrid's text: the two header
    lines as they are, then every value line without its `key =` (or
    `tiers?`), indent and `item [k]:`, `intervals [k]:` or `points [k]:`
    lines; the values stay in their order."""
    lines = text.splitlines()
    body = [re.sub(r'^(?:tiers\?|[^"=]*=) *', "", line.strip())
            for line in lines[2:]
            if not re.fullmatch(r"\s*(?:item|intervals|points) \[\d*\]:",
                                line)]
    return "\n".join(lines[:2] + body) + "\n"
