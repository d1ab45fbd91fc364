"""Exception hierarchy shared by every module.

Each class carries a stable ``code`` string; the CLI prints that code on
stderr so scripted callers can match on it without parsing messages.
"""

from __future__ import annotations

import json
import re


class EmlangError(Exception):
    """Base class for all data/validation errors raised by this package."""

    code = "Error"


class DocumentSyntaxError(EmlangError):
    """Malformed schema, corpus, or structured-report document."""

    code = "SyntaxError"


class UnknownReference(EmlangError):
    """An expression or lookup names a property that does not exist."""

    code = "UnknownReference"


class CycleError(EmlangError):
    """A hyperattribute references itself or a later-defined hyperattribute."""

    code = "CycleError"


class DomainError(EmlangError):
    """A value falls outside a declared domain, or a value map is not a bijection-by-cases."""

    code = "DomainError"


class LengthMismatch(EmlangError):
    code = "LengthMismatch"


class TokenOutOfRange(EmlangError):
    code = "TokenOutOfRange"


class AttributeMismatch(EmlangError):
    """Sample values do not line up with the schema's attributes."""

    code = "AttributeMismatch"


class EmptySample(EmlangError):
    """A frequency filter would leave a sample without any message."""

    code = "EmptySample"


class EmptyCorpus(EmlangError):
    code = "EmptyCorpus"


class ZeroVariance(EmlangError):
    """A correlation input is constant; reported instead of silently mapping to 0."""

    code = "ZeroVariance"


class CapacityError(EmlangError):
    """Message length or vocabulary too small for the requested construction."""

    code = "CapacityError"


class ConfigError(EmlangError):
    code = "ConfigError"


class NotFoundError(EmlangError):
    """A path that cannot be read or written."""

    code = "NotFound"


_SURROGATE = re.compile("[\ud800-\udfff]")
# a JSON escape of a surrogate, \uD800 to \uDFFF in either case
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def has_lone_surrogate(text: str) -> bool:
    """Whether ``text`` holds a surrogate code point, which UTF-8 cannot encode.

    A JSON surrogate pair such as ``"\\ud83d\\ude00"`` decodes to one code
    point, so any surrogate left in a decoded string is a lone one.
    """
    return not text.isascii() and _SURROGATE.search(text) is not None


def parse_json(text: str, message: str):
    """The JSON value of ``text``, or DocumentSyntaxError with ``message``
    formatted around the decoder's explanation.

    Besides malformed JSON this covers an integer of more than 4300 digits
    (ValueError), nesting deeper than the interpreter's recursion limit, and
    a string or key holding a lone surrogate, which no output could encode.
    A decoded string holds a surrogate only if ``text`` holds one or the
    escape of one, so the strings are walked only then.
    """
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DocumentSyntaxError(message.format(exc)) from None
    if not has_lone_surrogate(text) and _SURROGATE_ESCAPE.search(text) is None:
        return value
    strings, stack = [], [value]
    while stack:  # a loop, not a recursion: the value may nest to the recursion limit
        node = stack.pop()
        if isinstance(node, str):
            strings.append(node)
        elif isinstance(node, dict):
            strings.extend(node)
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    if has_lone_surrogate("".join(strings)):
        raise DocumentSyntaxError(message.format("a string holds a lone surrogate"))
    return value
