"""Actions: (object, annotator) assignments (Section III-B, "Action A").

The paper's action space has ``|O| x |W|`` atomic actions; a practical
iteration assigns ``k`` annotators to each of a batch of objects, so the
unit handed to the environment is an :class:`Assignment`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class Assignment:
    """One selected object with the annotators chosen to label it."""

    object_id: int
    annotator_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.object_id < 0:
            raise ConfigurationError(
                f"object_id must be >= 0, got {self.object_id}"
            )
        if not self.annotator_ids:
            raise ConfigurationError("an assignment needs at least one annotator")
        if len(set(self.annotator_ids)) != len(self.annotator_ids):
            raise ConfigurationError(
                f"duplicate annotators in assignment: {self.annotator_ids}"
            )

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """Atomic (object, annotator) actions composing this assignment."""
        return [(self.object_id, j) for j in self.annotator_ids]
