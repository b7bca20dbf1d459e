"""REPRO021 fixture: per-session state parked in shared scope.

One hit: a registry written to a plain attribute of the shared router
(whose methods take a ``session``).  The session-keyed slot and the
annotated process-local list stay silent.  A registry appended to an
unannotated module-global list is REPRO013's hit (par_global_state.py).
"""

_WARMUP_CACHES: list = []  # repro: process-local — rebuilt identically at import time in every process


class AnswerRouter:
    """Shared across every session on the engine."""

    def __init__(self):
        self._per_session: dict = {}

    def route(self, session, payload):
        """The shared entry point (its ``session`` arg marks the class)."""
        return (session, payload)

    def hit_attach(self, registry):
        """Parks one session's registry on the shared router."""
        self.registry = registry

    def clean_bind(self, session, registry):
        """A session-keyed slot preserves isolation (silent)."""
        self._per_session[session] = registry


def clean_warm_cache(registry):
    """The annotated process-local list is deliberate (silent)."""
    _WARMUP_CACHES.append(registry)
