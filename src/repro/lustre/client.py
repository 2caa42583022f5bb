"""Lustre client process model.

A :class:`ClientProcess` executes one *I/O program* — a generator produced by
a workload pattern (:mod:`repro.workloads.patterns`) — against an OSS through
the network.  The :class:`IoHandle` given to the program hides RPC mechanics:
``write(nbytes)`` / ``read(nbytes)`` chop a region into RPC-sized chunks and
keep a bounded window of them in flight, which is how a real Lustre client's
RPC engine pipelines bulk I/O (``max_rpcs_in_flight``).  Reads and writes
traverse the same NRS/TBF path and cost one token per RPC (the paper's
convention); the handle attributes moved bytes to ``bytes_read`` /
``bytes_written`` per :class:`~repro.lustre.rpc.RpcKind` so mixed-op
workloads stay observable.

The window waits on one event per full window.  Each windowed RPC's
``client_done`` carries one ``_on_done`` callback that counts the
completion and relays the pending wait
(:meth:`~repro.sim.engine.Environment.relay`), in the slot an ``any_of``
over the RPCs in flight would trigger in, and the writer takes every
completion counted by the time the wait triggered, the snapshot such an
``any_of`` takes.  So the calendar order is that of an ``any_of`` per
window, while an RPC that stays in flight across several windows carries
one callback instead of one condition callback per window.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.lustre.network import Network
from repro.lustre.oss import Oss
from repro.lustre.rpc import Rpc, RpcKind
from repro.lustre.striping import StripeLayout
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment
    from repro.sim.process import Process

__all__ = ["IoHandle", "ClientProcess", "DEFAULT_RPC_SIZE", "DEFAULT_WINDOW"]

#: Default bulk RPC payload: 1 MiB, Lustre's typical max_pages_per_rpc worth.
DEFAULT_RPC_SIZE = 1 << 20
#: Default RPCs in flight per client process (Lustre max_rpcs_in_flight=8).
DEFAULT_WINDOW = 8


class IoHandle:
    """The I/O surface a workload program uses.

    Parameters
    ----------
    env, network, oss:
        Plumbing to reach storage.
    job_id:
        JobID stamped on every RPC (the TBF classification key).
    client_id:
        Identifier of this client process.
    rpc_size:
        Bulk RPC payload in bytes.
    window:
        Maximum RPCs in flight for :meth:`write`.
    """

    __slots__ = (
        "env",
        "network",
        "oss",
        "job_id",
        "client_id",
        "rpc_size",
        "window",
        "layout",
        "_offset",
        "rpcs_issued",
        "bytes_written",
        "bytes_read",
        "_stream_seq",
        "_done",
        "_wait",
        "_on_done_cb",
    )

    def __init__(
        self,
        env: "Environment",
        network: Network,
        oss: Oss,
        job_id: str,
        client_id: str,
        rpc_size: int = DEFAULT_RPC_SIZE,
        window: int = DEFAULT_WINDOW,
        layout: Optional[StripeLayout] = None,
    ) -> None:
        if not 0 < rpc_size < math.inf:  # also rejects NaN
            raise ValueError(f"rpc_size must be positive and finite, got {rpc_size}")
        if not window > 0:  # also rejects NaN
            raise ValueError(f"window must be positive, got {window}")
        self.env = env
        self.network = network
        self.oss = oss
        self.job_id = job_id
        self.client_id = client_id
        self.rpc_size = rpc_size
        self.window = window
        #: File layout; defaults to a single-OST layout on `oss` (Lustre's
        #: default stripe_count=1).  The handle models one file, so a
        #: monotone offset drives the chunk→OST mapping.
        self.layout = layout or StripeLayout([oss], stripe_size=rpc_size)
        self._offset = 0
        self.rpcs_issued = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self._stream_seq = 0
        # Window state: completions not yet consumed by the writer and the
        # event it waits on while the window is full (None when not waiting
        # or already triggered).
        self._done = 0
        self._wait: Optional[Event] = None
        self._on_done_cb = self._on_done

    def next_stream_seq(self) -> int:
        """Monotone counter for RNG-substream derivation.

        Workload patterns fold this into their substream names
        (:meth:`repro.workloads.patterns.Pattern.stream`) so each
        ``program()`` invocation on this handle — e.g. every phase of a
        repeated composite — draws a fresh stream instead of replaying the
        first one.  Programs run in deterministic order within a client,
        so the sequence is reproducible across processes.
        """
        seq = self._stream_seq
        self._stream_seq += 1
        return seq

    @property
    def now(self) -> float:
        return self.env.now

    def sleep(self, seconds: float):
        """Event that fires after ``seconds`` (for program pacing)."""
        return self.env.timeout(seconds)

    def submit(self, nbytes: Optional[int] = None, kind: RpcKind = RpcKind.WRITE):
        """Issue a single RPC at the current file offset.

        Returns the client-side completion event.  The target OSS follows
        the file's stripe layout; with the default single-OST layout every
        RPC goes to ``self.oss``.
        """
        size = self.rpc_size if nbytes is None else nbytes
        target = self.layout.target_for_offset(self._offset)
        rpc = Rpc(
            job_id=self.job_id,
            client_id=self.client_id,
            size_bytes=size,
            kind=kind,
        )
        self.rpcs_issued += 1
        if kind is RpcKind.READ:
            self.bytes_read += size
        else:
            self.bytes_written += size
        self._offset += size
        return self.network.submit(rpc, target)

    def write(self, total_bytes: int, kind: RpcKind = RpcKind.WRITE) -> Generator:
        """Write ``total_bytes`` as a pipelined stream of RPCs.

        Keeps up to ``window`` RPCs outstanding; yields until every chunk has
        completed.  Usage inside a program: ``yield from io.write(1 << 30)``.
        """
        if total_bytes <= 0:
            raise ValueError(f"total_bytes must be positive, got {total_bytes}")
        env = self.env
        window = self.window
        on_done = self._on_done_cb
        n_chunks = math.ceil(total_bytes / self.rpc_size)
        remaining = total_bytes
        in_flight = 0
        issued = 0
        while issued < n_chunks or in_flight:
            while issued < n_chunks and in_flight < window:
                size = min(self.rpc_size, remaining)
                remaining -= size
                self.submit(size, kind=kind).callbacks.append(on_done)
                in_flight += 1
                issued += 1
            # Wait for the window to open (any completion frees a slot),
            # taking every completion processed by the time the wait
            # triggers: the snapshot an any_of over the in-flight RPCs takes.
            wait = Event(env)
            if self._done:
                env.relay(wait, self._done)
            else:
                self._wait = wait
            done = yield wait
            self._done -= done
            in_flight -= done

    def _on_done(self, _event: Event) -> None:
        """A windowed RPC's reply arrived: count it and end a pending wait."""
        self._done += 1
        wait = self._wait
        if wait is not None:
            self._wait = None
            self.env.relay(wait, self._done)

    def read(self, total_bytes: int) -> Generator:
        """Read ``total_bytes`` as a pipelined stream of READ RPCs.

        Identical geometry to :meth:`write` — same chunking, same window,
        same NRS/TBF token accounting (the scheduler treats both kinds
        alike) — but the RPCs are classed :attr:`~repro.lustre.rpc.RpcKind.READ`
        and the volume lands in :attr:`bytes_read`.
        """
        yield from self.write(total_bytes, kind=RpcKind.READ)


class ClientProcess:
    """One workload process on one client node.

    Parameters
    ----------
    program:
        A callable ``program(io) -> generator`` — typically the bound
        ``program`` method of a workload pattern.
    """

    __slots__ = ("io", "process")

    def __init__(
        self,
        env: "Environment",
        network: Network,
        oss: Oss,
        job_id: str,
        client_id: str,
        program: Callable[[IoHandle], Generator],
        rpc_size: int = DEFAULT_RPC_SIZE,
        window: int = DEFAULT_WINDOW,
        layout: Optional[StripeLayout] = None,
    ) -> None:
        self.io = IoHandle(
            env,
            network,
            oss,
            job_id=job_id,
            client_id=client_id,
            rpc_size=rpc_size,
            window=window,
            layout=layout,
        )
        self.process: "Process" = env.process(
            program(self.io), name=f"{job_id}/{client_id}"
        )

    @property
    def finished(self) -> bool:
        return not self.process.is_alive
