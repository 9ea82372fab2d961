"""The one name → entry table type behind every catalogue in the library.

It imports nothing from :mod:`repro`, so every layer can use it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Type


class Catalogue(dict):
    """A name → entry table with one register, lookup and refusal rule.

    Algorithms, tasks and topologies (:mod:`repro.registry`), scenarios,
    schedules, profiles, delay models, failure patterns and growth
    families are each one.  As a ``dict`` it also reads without the
    ``load`` hook (``table[name]``, ``table.get(name)``), which is what
    the registration decorators need while the built-in modules import.

    Parameters
    ----------
    kind:
        What an entry is, as messages name it (``"delay model"``).
    entries:
        The initial ``name → entry`` mapping.
    unknown, duplicate:
        The ``ValueError`` types raised for a missing and a taken name.
    identity:
        ``fn(entry) -> key``: a taken name accepts an entry with the key
        of the one it holds, and replaces it (a module reload).  ``None``
        makes every re-registration a conflict.
    fixed:
        Names :meth:`unregister` refuses.
    load:
        Called before :meth:`lookup`, :meth:`names` and :meth:`entries`.
    """

    def __init__(
        self,
        kind: str,
        entries: Iterable = (),
        *,
        unknown: Type[ValueError] = ValueError,
        duplicate: Type[ValueError] = ValueError,
        identity: Optional[Callable[[Any], Any]] = None,
        fixed: Iterable[str] = (),
        load: Optional[Callable[[], None]] = None,
    ) -> None:
        super().__init__(entries)
        self.kind = kind
        self.unknown = unknown
        self.duplicate = duplicate
        self.identity = identity
        self.fixed = frozenset(fixed)
        self.load = load

    def register(self, entry: Any, name: Optional[str] = None) -> Any:
        """Add ``entry`` under ``name`` (default ``entry.name``); return it."""
        name = entry.name if name is None else name
        if name in self and (
            self.identity is None or self.identity(self[name]) != self.identity(entry)
        ):
            raise self.duplicate(f"{self.kind} {name!r} is already registered")
        self[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove ``name`` if present; a fixed name raises ``ValueError``."""
        if name in self.fixed:
            raise ValueError(f"{self.kind} {name!r} cannot be unregistered")
        self.pop(name, None)

    def lookup(self, name: Any) -> Any:
        """The entry named ``name``; a miss raises ``unknown`` listing the
        names."""
        if self.load is not None:
            self.load()
        try:
            return self[name]
        except (KeyError, TypeError):
            raise self.unknown(
                f"unknown {self.kind} {name!r}; choose from {self.names()}"
            ) from None

    def names(self) -> List[str]:
        """The registered names, sorted."""
        if self.load is not None:
            self.load()
        return sorted(self)

    def entries(self) -> List[Any]:
        """The registered entries, sorted by name."""
        return [self[name] for name in self.names()]
