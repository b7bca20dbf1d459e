"""REPRO023 fixture: episode-generator protocol misuse.

Three hits: an episode advanced by iteration (the records never reach
it), a generator parked on ``self`` with no close() path in the class,
and a yield inside ``try`` without ``finally``.  The send-driven
driver, the closing owner, and the try/finally generator stay silent.
"""


class CollectRequest:
    """The protocol's yield payload."""

    def __init__(self, assignments):
        self.assignments = assignments


def episode(dataset):
    """A well-formed stepwise episode (silent)."""
    records = []
    while dataset:
        batch = dataset.pop()
        answers = yield CollectRequest(batch)
        records.extend(answers)
    return records


def hit_try_without_finally(dataset):
    """close() during the suspension skips the handler's cleanup."""
    ledger = []
    try:
        answers = yield CollectRequest(dataset)
        ledger.extend(answers)
    except ValueError:
        ledger.clear()
    return ledger


def clean_guarded_episode(dataset):
    """finally runs even when close() lands mid-suspension (silent)."""
    ledger = []
    try:
        answers = yield CollectRequest(dataset)
        ledger.extend(answers)
    finally:
        dataset.clear()
    return ledger


def hit_iterating_driver(dataset, collect):
    """A for loop sends None each step: the episode starves."""
    run = episode(dataset)
    for request in run:
        collect(request.assignments)


def clean_send_driver(dataset, collect):
    """One priming next(), then send(records) per batch (silent)."""
    run = episode(dataset)
    request = next(run)
    while True:
        try:
            request = run.send(collect(request.assignments))
        except StopIteration as stop:
            return stop.value


class LeakyOwner:
    """Parks the frame with no way to release it."""

    def start(self, dataset):
        """Parks the primed generator on the owner."""
        self._episode = episode(dataset)
        return next(self._episode)


class ClosingOwner:
    """The abort path releases the frame (silent)."""

    def start(self, dataset):
        """Parks the primed generator on the owner."""
        self._episode = episode(dataset)
        return next(self._episode)

    def feed(self, records):
        return self._episode.send(records)

    def close(self):
        self._episode.close()
