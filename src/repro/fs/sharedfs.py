"""Shared parallel filesystem model.

FSglobals copies the PIE binary once per virtual rank onto a shared
filesystem and ``dlopen``s each copy.  Two properties of real shared
filesystems shape its behaviour in Figure 5:

* every copy costs metadata ops + bytes/bandwidth, so startup grows with
  the *total* number of virtual ranks in the job (unlike the per-process
  constant cost of the other methods); and
* bandwidth is an aggregate, contended resource: concurrent clients (one
  per OS process at startup) slow each other down.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SharedFsError
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel


@dataclass
class FsFile:
    name: str
    size: int


class SharedFileSystem:
    """A job-wide shared FS: one instance serves every simulated node."""

    def __init__(self, costs: CostModel, capacity_bytes: int = 1 << 44):
        self.costs = costs
        self.capacity_bytes = capacity_bytes
        self._files: dict[str, FsFile] = {}
        self._used_bytes = 0   #: sum of the sizes in ``_files``

    # -- queries ---------------------------------------------------------------

    def exists(self, name: str) -> bool:
        return name in self._files

    def stat(self, name: str) -> FsFile:
        try:
            return self._files[name]
        except KeyError:
            raise SharedFsError(f"no such file: {name}") from None

    def used_bytes(self) -> int:
        return self._used_bytes

    def file_count(self) -> int:
        return len(self._files)

    # -- operations (all charge time to the caller's clock) ----------------------

    def write_file(
        self, name: str, size: int, clock: SimClock, concurrent_clients: int = 1
    ) -> FsFile:
        if size < 0:
            raise SharedFsError(f"negative file size for {name}")
        old = self._files.get(name)
        used = self._used_bytes - (old.size if old else 0) + size
        if used > self.capacity_bytes:
            raise SharedFsError(
                f"shared filesystem full: cannot write {size} bytes "
                f"({self._used_bytes} of {self.capacity_bytes} used)"
            )
        clock.advance(self.costs.fs_write_ns(size, concurrent_clients))
        f = FsFile(name, size)
        self._files[name] = f
        self._used_bytes = used
        return f

    def copy_file(
        self, src: str, dst: str, clock: SimClock, concurrent_clients: int = 1
    ) -> FsFile:
        """Read src + write dst (the per-rank binary copy in FSglobals)."""
        s = self.stat(src)
        clock.advance(self.costs.fs_read_ns(s.size, concurrent_clients))
        return self.write_file(dst, s.size, clock, concurrent_clients)

    def unlink(self, name: str, clock: SimClock | None = None) -> None:
        if name not in self._files:
            raise SharedFsError(f"no such file: {name}")
        if clock is not None:
            clock.advance(self.costs.fs_open_ns)
        self._used_bytes -= self._files.pop(name).size

    def cleanup_prefix(self, prefix: str) -> int:
        """Remove all files under a prefix (job teardown); returns count."""
        victims = [n for n in self._files if n.startswith(prefix)]
        for n in victims:
            self._used_bytes -= self._files.pop(n).size
        return len(victims)
