"""Enumeration caps.

Everything in this library works by explicit enumeration of D^Sigma, so
domain size and arity are capped to keep that enumerable.  One budget,
``max_search_nodes``, bounds the time of every exhaustive loop (deciders,
both censuses).  The active caps live in one context variable: ``current()``
reads them, and ``with using(caps):`` sets them for a block and restores the
previous value when the block ends, also when it raises.  Library calls run
under ``Caps()`` unless a caller sets others with ``using``.

The CLI reads the RELRED_CAPS environment variable once per run, with
``from_env``, and runs the command under it.  The variable is a
comma-separated list of ``name=value`` pairs, e.g.
``RELRED_CAPS=max_arity=10,max_domain=6``; ``from_env`` raises
``ParseError`` on a malformed value.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator

from .errors import ParseError


@dataclass(frozen=True)
class Caps:
    max_domain: int = 8                # |D|
    max_arity: int = 8                 # enumerated schemes (standard, complement, census)
    max_search_nodes: int = 1_000_000  # boxes, closure steps, cover nodes, census masks and draws


_ACTIVE: ContextVar[Caps] = ContextVar("relred_caps", default=Caps())


def current() -> Caps:
    """The caps every check reads: ``Caps()`` outside any ``using`` block."""
    return _ACTIVE.get()


@contextmanager
def using(active: Caps) -> Iterator[None]:
    """Run the block under the ``active`` caps."""
    token = _ACTIVE.set(active)
    try:
        yield
    finally:
        _ACTIVE.reset(token)


def _parse(spec: str) -> Caps:
    caps = Caps()
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq:
            raise ParseError(f"RELRED_CAPS item {item!r} is not name=value")
        if name not in Caps.__dataclass_fields__:
            raise ParseError(f"unknown cap {name!r} in RELRED_CAPS")
        try:
            caps = replace(caps, **{name: int(value)})
        except ValueError:
            raise ParseError(
                f"cap {name!r} in RELRED_CAPS needs an integer, got {value.strip()!r}"
            ) from None
    return caps


def from_env() -> Caps:
    return _parse(os.environ.get("RELRED_CAPS", ""))
