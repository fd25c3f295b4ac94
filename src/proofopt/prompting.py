"""Prompt template loading and rendering.

Templates are plain text files with {name} placeholders. Rendering uses
literal replacement rather than str.format because Lean sources are full of
braces.
"""

from __future__ import annotations

import functools
import re
from importlib import resources

from .errors import TemplateMissing

_PLACEHOLDER = re.compile(r"\{([a-z_]+)\}")


@functools.cache  # a read that raises is not kept, so an unknown id raises at every call
def load_template(template_id: str) -> str:
    try:
        return (resources.files("proofopt") / "prompts" / f"{template_id}.txt").read_text(
            encoding="utf-8"
        )
    except (FileNotFoundError, OSError) as exc:
        raise TemplateMissing(f"no prompt template named {template_id!r}") from exc


def render(template_id: str, **fields: str) -> str:
    """The template with each placeholder replaced by its field's value. The
    values are not searched for placeholders, so their braces stay as they
    are."""
    text = load_template(template_id)
    missing = sorted(set(_PLACEHOLDER.findall(text)) - set(fields))
    if missing:
        raise TemplateMissing(f"template {template_id!r} is missing fields: {missing}")
    return _PLACEHOLDER.sub(lambda m: fields[m.group(1)], text)
