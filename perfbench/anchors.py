"""Complet anchors the benchmark deploys.

They live at module level so that they are importable, and therefore
marshalable, in the child Core processes as well: a child started by
``CoreProcesses`` inherits the driver's ``sys.path``, which holds the
checkout root, so ``perfbench.anchors`` resolves there too.

Leaf methods (the ones that do the application's work and call no
other complet) can time their own bodies.  Timing is off until
``set_timing(True)`` is called on the complet, so the untraced runs pay
one attribute test per call.  The totals are what a traced run reads as
``exec.us`` on the TCP workloads, where the bodies run in other
processes.
"""

from __future__ import annotations

import functools
import zlib
from time import perf_counter_ns

from repro.complet.anchor import Anchor
from repro.complet.relocators import Duplicate, Pull
from repro.complet.stub import compile_complet
from repro.core.core import Core


def leaf(method):
    """Time the body of ``method`` into the complet's exec totals."""

    @functools.wraps(method)
    def timed(self, *args, **kwargs):
        if not self.timing:
            return method(self, *args, **kwargs)
        start = perf_counter_ns()
        try:
            return method(self, *args, **kwargs)
        finally:
            self.exec_ns += perf_counter_ns() - start
            self.exec_count += 1

    return timed


class _Timed(Anchor):
    def __init__(self) -> None:
        self.timing = False
        self.exec_ns = 0
        self.exec_count = 0

    def set_timing(self, enabled: bool) -> None:
        self.timing = enabled
        self.exec_ns = 0
        self.exec_count = 0

    def exec_totals(self) -> tuple[int, int]:
        """(nanoseconds spent in leaf bodies, leaf calls) since set_timing."""
        return self.exec_ns, self.exec_count


class Echo_(_Timed):
    """Returns its argument (after by-value marshaling both ways)."""

    @leaf
    def echo(self, payload: bytes) -> bytes:
        return payload


class Relay_(Anchor):
    """Forwards a payload to an echo complet on another Core."""

    def __init__(self, server) -> None:
        self.server = server

    def relay(self, payload: bytes) -> bytes:
        return self.server.echo(payload)


class Affine_(Anchor):
    """A client whose traffic goes to one of two servers at a time.

    The benchmark flips which server ``burst`` talks to; the layout
    script's ``methodInvokeRate`` rules then colocate this complet with
    the server its affinity flipped to.
    """

    def __init__(self, first, second) -> None:
        self.servers = [first, second]

    def burst(self, which: int, count: int, payload: bytes) -> int:
        server = self.servers[which]
        for _ in range(count):
            if server.echo(payload) != payload:
                return -1
        return count


class Member_(Anchor):
    """A pull-group member carrying a block of data."""

    def __init__(self, size: int, fill: int) -> None:
        self.block = bytes([fill % 256]) * size

    def where(self) -> str:
        return self.core.name


class GroupHead_(Anchor):
    """Head of a pull group: its members travel with it."""

    def __init__(self) -> None:
        self.members: list = []

    def attach(self, members: list) -> None:
        self.members = list(members)
        for member in self.members:
            Core.get_meta_ref(member).set_relocator(Pull())

    def where(self) -> list[str]:
        """This complet's Core followed by each member's."""
        return [self.core.name] + [member.where() for member in self.members]


class DataSource_(Anchor):
    """A bulky complet; moves of it are offloaded to the object store."""

    def __init__(self, blob: bytes) -> None:
        self.blob = blob

    def checksum(self) -> int:
        return zlib.crc32(self.blob)


class Library_(Anchor):
    """Read-mostly data that holders reference by ``duplicate``."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.revision = 0

    def write(self, data: bytes) -> int:
        self.data = data
        self.revision += 1
        return self.revision

    def digest(self) -> tuple[int, int]:
        return self.revision, zlib.crc32(self.data)


class Holder_(Anchor):
    """Holds a ``duplicate`` reference: moving it clones the library."""

    def __init__(self) -> None:
        self.ref = None

    def rebind(self, library) -> None:
        self.ref = library
        Core.get_meta_ref(library).set_relocator(Duplicate())

    def digest(self) -> tuple[int, int]:
        return self.ref.digest()


Echo = compile_complet(Echo_)
Relay = compile_complet(Relay_)
Affine = compile_complet(Affine_)
Member = compile_complet(Member_)
GroupHead = compile_complet(GroupHead_)
DataSource = compile_complet(DataSource_)
Library = compile_complet(Library_)
Holder = compile_complet(Holder_)

#: Anchor methods that call no other complet: the in-process traced run
#: records their bodies as ``exec`` spans.
LEAF_METHODS = (
    (Echo_, "echo"),
    (Member_, "where"),
    (DataSource_, "checksum"),
    (Library_, "digest"),
    (Library_, "write"),
)
