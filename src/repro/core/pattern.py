"""Region/subgroup patterns and the dominance relationship (paper §II).

A pattern is a conjunction of ``attribute = value`` assignments over
categorical attributes (Definition in §II-A); attributes not mentioned are
non-deterministic ("don't care").  ``Pattern`` is immutable and hashable so
it can key dictionaries and sets throughout the IBS machinery.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.errors import PatternError


class Pattern:
    """An immutable conjunction of ``(attribute, code)`` assignments.

    The number of deterministic elements (the paper's ``d``) is
    :attr:`level`.  The empty pattern is the level-0 region: the entire
    dataset.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, items: Iterable[tuple[str, int]] = ()):
        pairs = tuple(sorted((str(a), int(c)) for a, c in items))
        attrs = [a for a, __ in pairs]
        if len(set(attrs)) != len(attrs):
            dupes = sorted({a for a in attrs if attrs.count(a) > 1})
            raise PatternError(f"pattern assigns attributes twice: {dupes}")
        if any(c < 0 for __, c in pairs):
            raise PatternError("pattern codes must be non-negative")
        self._items = pairs
        self._hash = hash(pairs)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_sorted(cls, items: tuple[tuple[str, int], ...]) -> "Pattern":
        """Build from items already in canonical form, skipping the checks.

        ``items`` must be sorted by attribute, assign each attribute once
        and hold non-negative ``int`` codes — as the hierarchy's count-cube
        cells do.  Report building calls this once per biased region.
        """
        pattern = object.__new__(cls)
        pattern._items = items
        pattern._hash = hash(items)
        return pattern

    @classmethod
    def from_labels(cls, schema: Schema, assignment: Mapping[str, str]) -> "Pattern":
        """Build from ``{attr: label}`` using the schema's domains."""
        items = []
        for name, label in assignment.items():
            col = schema[name]
            if not col.is_categorical:
                raise PatternError(f"pattern attribute {name!r} must be categorical")
            items.append((name, col.code_of(label)))
        return cls(items)

    # -- identity -------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Pickle the items only: the cached hash is of strings, whose hash
        # is salted per process, so a loading process must recompute it.
        return (Pattern.from_sorted, (self._items,))

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        if not self._items:
            return "Pattern(<all>)"
        body = ", ".join(f"{a}={c}" for a, c in self._items)
        return f"Pattern({body})"

    # -- accessors ------------------------------------------------------------
    @property
    def items(self) -> tuple[tuple[str, int], ...]:
        return self._items

    @property
    def attrs(self) -> frozenset[str]:
        """The deterministic attribute set."""
        return frozenset(a for a, __ in self._items)

    @property
    def level(self) -> int:
        """Number of deterministic elements (the paper's ``d``)."""
        return len(self._items)

    @property
    def assignment(self) -> dict[str, int]:
        """``{attr: code}`` view, accepted by :meth:`Dataset.mask`."""
        return dict(self._items)

    def value_of(self, attr: str) -> int:
        """Code assigned to ``attr``; raises if non-deterministic."""
        for a, c in self._items:
            if a == attr:
                return c
        raise PatternError(f"attribute {attr!r} is non-deterministic in {self!r}")

    def describe(self, schema: Schema) -> str:
        """Human-readable form using domain labels."""
        if not self._items:
            return "(entire dataset)"
        parts = [f"{a}={schema[a].label_of(c)}" for a, c in self._items]
        return "(" + ", ".join(parts) + ")"

    # -- algebra ---------------------------------------------------------------
    def drop(self, attr: str) -> "Pattern":
        """Pattern with ``attr`` made non-deterministic (one level up)."""
        if attr not in self.attrs:
            raise PatternError(f"attribute {attr!r} is not deterministic in {self!r}")
        return Pattern((a, c) for a, c in self._items if a != attr)

    def drop_all(self, attrs: Iterable[str]) -> "Pattern":
        """Pattern with every attribute in ``attrs`` made non-deterministic."""
        attrs = set(attrs)
        missing = attrs - self.attrs
        if missing:
            raise PatternError(
                f"attributes {sorted(missing)} are not deterministic in {self!r}"
            )
        return Pattern((a, c) for a, c in self._items if a not in attrs)

    def with_value(self, attr: str, code: int) -> "Pattern":
        """Pattern with ``attr`` (re)assigned to ``code``."""
        items = [(a, c) for a, c in self._items if a != attr]
        items.append((attr, int(code)))
        return Pattern(items)

    def is_dominated_by(self, other: "Pattern") -> bool:
        """Dominance (Definition 2): ``self ⪯ other``.

        True when ``other``'s pattern is obtained from ``self``'s by turning
        some deterministic elements non-deterministic — i.e. ``other``'s
        assignments are a subset of ``self``'s.
        """
        return set(other._items) <= set(self._items)

    def dominates(self, other: "Pattern") -> bool:
        """True when ``other ⪯ self`` (self is the more general subgroup)."""
        return other.is_dominated_by(self)

    def hamming_distance(self, other: "Pattern") -> int:
        """Number of differing value assignments.

        Defined only between patterns over the same deterministic attribute
        set — regions in different dimensions "are not directly comparable"
        (§II-B) — and raises otherwise.
        """
        if self.attrs != other.attrs:
            raise PatternError(
                f"distance undefined between different attribute sets "
                f"{sorted(self.attrs)} vs {sorted(other.attrs)}"
            )
        theirs = dict(other._items)
        return sum(1 for a, c in self._items if theirs[a] != c)

    # -- dataset hooks -----------------------------------------------------------
    def mask(self, dataset: Dataset):
        """Boolean row mask of this pattern over ``dataset``."""
        return dataset.mask(self.assignment)

    def counts(self, dataset: Dataset) -> tuple[int, int]:
        """``(|r+|, |r-|)`` of this region in ``dataset``."""
        return dataset.counts(self.assignment)

    def support(self, dataset: Dataset) -> float:
        """Fraction of the dataset's rows matched by the pattern."""
        if dataset.n_rows == 0:
            return 0.0
        return float(self.mask(dataset).mean())
