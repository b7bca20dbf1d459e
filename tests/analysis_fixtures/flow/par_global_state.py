"""REPRO013 fixture: module-global mutable state written after import time.

Three hits, all anchored at the offending *definitions*: a module-level
cache dict written through a subscript from a function body, a backend
name rebound via ``global``, and a list that collects one session's
registry per call.  The annotated process-local registry and the
function-local accumulator stay silent.
"""

_RESULT_CACHE: dict = {}

_ACTIVE_BACKEND = "serial"

_LEAKED_REGISTRIES: list = []

_LOCAL_REGISTRY: dict = {}  # repro: process-local — rebuilt identically at import time in every process


def hit_cache_write(key, value):
    """Writes the module dict after import (flags the definition)."""
    _RESULT_CACHE[key] = value
    return _RESULT_CACHE


def hit_rebinding(name):
    """Rebinds a module global via ``global`` (flags the definition)."""
    global _ACTIVE_BACKEND
    _ACTIVE_BACKEND = name


def hit_register_fallback(registry):
    """Appends one session's registry to the module list (flags it)."""
    _LEAKED_REGISTRIES.append(registry)


def register_local(key, value):
    """Mutating the annotated registry (silent)."""
    _LOCAL_REGISTRY[key] = value


def clean_local_accumulator(items):
    """A function-local dict is not shared state (silent)."""
    totals = {}
    for item in items:
        totals[item] = totals.get(item, 0) + 1
    return totals
