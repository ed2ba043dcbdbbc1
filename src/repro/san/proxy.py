"""Instrumented proxy wrappers — the sanitizer's tripwires.

An :class:`AccessProxy` stands in for one shared pipeline object inside
a worker view.  It forwards every operation to the real target
unchanged — same values, same exceptions, same iteration order, so the
determinism contract (parallel ≡ sequential, byte for byte) holds under
instrumentation — while recording ``(worker, label, attr, kind)`` into
the sanitizer's :class:`~repro.san.events.AccessLog`.

Instrumentation is one level deep by design: attribute *access* on the
proxy is recorded (reads, or writes for known in-place mutator methods)
and returns the raw underlying object.  That catches every write the
``worker_view()`` protocol can express — stores and mutator calls
through the view's shared attributes — without wrapping the world in
proxies that would leak into result records.  Deeper objects that need
watching (``fusion.graph`` handed to the per-view scorer) are wrapped
explicitly at the seam.

Dunder operations bypass ``__getattr__`` (the interpreter looks them up
on the type), so the container protocol is forwarded explicitly.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.san.events import READ, WRITE, AccessEvent, AccessLog

#: method names that mutate their receiver in place — attribute access
#: to one of these on a proxy records a WRITE even before the call.
MUTATOR_NAMES = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "merge", "pop", "popitem", "remove",
    "setdefault", "update",
})

_SLOTS = ("_san_target", "_san_log", "_san_worker", "_san_label")


class AccessProxy:
    """Transparent recording wrapper around one shared object."""

    __slots__ = _SLOTS

    def __init__(
        self, target: Any, log: AccessLog, worker: int, label: str
    ) -> None:
        object.__setattr__(self, "_san_target", target)
        object.__setattr__(self, "_san_log", log)
        object.__setattr__(self, "_san_worker", worker)
        object.__setattr__(self, "_san_label", label)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _san_record(self, attr: str, kind: str) -> None:
        log: AccessLog = object.__getattribute__(self, "_san_log")
        log.record(AccessEvent(
            worker=object.__getattribute__(self, "_san_worker"),
            label=object.__getattribute__(self, "_san_label"),
            attr=attr,
            kind=kind,
        ))

    # ------------------------------------------------------------------
    # attribute protocol
    # ------------------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        target = object.__getattribute__(self, "_san_target")
        kind = WRITE if name in MUTATOR_NAMES else READ
        self._san_record(name, kind)
        return getattr(target, name)

    def __setattr__(self, name: str, value: Any) -> None:
        self._san_record(name, WRITE)
        setattr(object.__getattribute__(self, "_san_target"), name, value)

    def __delattr__(self, name: str) -> None:
        self._san_record(name, WRITE)
        delattr(object.__getattribute__(self, "_san_target"), name)

    # ------------------------------------------------------------------
    # container protocol (dunders bypass __getattr__)
    # ------------------------------------------------------------------
    def __getitem__(self, key: Any) -> Any:
        self._san_record(repr(key), READ)
        return object.__getattribute__(self, "_san_target")[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        self._san_record(repr(key), WRITE)
        object.__getattribute__(self, "_san_target")[key] = value

    def __delitem__(self, key: Any) -> None:
        self._san_record(repr(key), WRITE)
        del object.__getattribute__(self, "_san_target")[key]

    def __contains__(self, key: Any) -> bool:
        self._san_record("__contains__", READ)
        return key in object.__getattribute__(self, "_san_target")

    def __len__(self) -> int:
        self._san_record("__len__", READ)
        return len(object.__getattribute__(self, "_san_target"))

    def __iter__(self) -> Iterator[Any]:
        self._san_record("__iter__", READ)
        return iter(object.__getattribute__(self, "_san_target"))

    def __bool__(self) -> bool:
        return bool(object.__getattribute__(self, "_san_target"))

    def __eq__(self, other: object) -> bool:
        target = object.__getattribute__(self, "_san_target")
        if isinstance(other, AccessProxy):
            other = object.__getattribute__(other, "_san_target")
        return bool(target == other)

    def __hash__(self) -> int:
        # Transparent forwarding: the proxy must hash like its target so
        # in-process dict/set membership is unchanged; nothing derived
        # from this hash is ever persisted or ordered by.
        return hash(object.__getattribute__(self, "_san_target"))  # repro-lint: ignore[DET006]

    def __repr__(self) -> str:
        return repr(object.__getattribute__(self, "_san_target"))


def unwrap(obj: Any) -> Any:
    """The raw object behind a proxy (identity for everything else)."""
    if isinstance(obj, AccessProxy):
        return object.__getattribute__(obj, "_san_target")
    return obj
