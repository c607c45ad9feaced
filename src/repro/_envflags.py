"""Defensive environment-variable parsing — the only module that may
touch ``os.environ``.

The configuration env vars (``REPRO_CACHE_BACKEND``,
``REPRO_WORKERS``, ``REPRO_SWEEP_CACHE``, ``REPRO_CACHE_DIR``) are
parsed at import time by modules that *everything* imports, so a
garbage value must never break imports or silently flip behaviour:
unknown values warn (``RuntimeWarning``) and fall back to the default.
The determinism linter (``python -m repro.analysis.lint``, rule
``ENV001``) rejects raw ``os.environ`` reads anywhere else in
``src/repro`` — add a typed helper here instead of reading directly.
"""

from __future__ import annotations

import os
import typing as _t
import warnings

__all__ = ["env_choice", "env_flag", "env_int", "env_str"]

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


def env_flag(name: str, default: bool) -> bool:
    """Parse the on/off env var ``name``; unset/empty → ``default``,
    garbage → ``RuntimeWarning`` + ``default``."""
    raw = os.environ.get(name, "")
    value = raw.strip().lower()
    if not value:
        return default
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    warnings.warn(
        f"ignoring {name}={raw!r}: expected one of "
        f"{sorted(_TRUE | _FALSE)}; using the default "
        f"({'on' if default else 'off'})", RuntimeWarning,
        stacklevel=2)
    return default


def env_str(name: str, default: str = "") -> str:
    """The raw (stripped) value of ``name``; unset/empty →
    ``default``.  For free-form values (paths) that have no invalid
    spellings — prefer the validating helpers where a vocabulary
    exists."""
    raw = os.environ.get(name, "").strip()
    return raw if raw else default


def env_int(name: str, default: int, *,
            minimum: _t.Optional[int] = None) -> int:
    """Parse the integer env var ``name``; unset/empty → ``default``,
    non-integers and values below ``minimum`` →
    ``RuntimeWarning`` + ``default``."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring {name}={raw!r}: not an integer; using the "
            f"default ({default})", RuntimeWarning, stacklevel=2)
        return default
    if minimum is not None and value < minimum:
        warnings.warn(
            f"ignoring {name}={value}: must be >= {minimum}; using "
            f"the default ({default})", RuntimeWarning, stacklevel=2)
        return default
    return value


def env_choice(name: str, choices: _t.Sequence[str],
               default: str) -> str:
    """Parse an enumerated env var (lower-cased); unset/empty →
    ``default``, unknown values → ``RuntimeWarning`` + ``default``.
    ``choices`` is kept in documentation order in the warning."""
    raw = os.environ.get(name, "").strip().lower()
    if not raw:
        return default
    if raw in choices:
        return raw
    warnings.warn(
        f"ignoring {name}={raw!r}: expected one of "
        f"{', '.join(choices)}; using the default ({default!r})",
        RuntimeWarning, stacklevel=2)
    return default
