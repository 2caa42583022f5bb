"""The per-RPC path's calendar work on a many-client swarm.

Two thousand lockstep clients on 100 OSTs (the ``swarm-rw`` benchmark
configuration) put long runs of same-instant relays on the calendar: the
deliver and reply network hops, the reply relay, ``client_done``, the
client window's wake, the OSTs' transfer-done events and arrival
broadcasts.  Adjacent ones share one carrier entry
(:meth:`repro.sim.engine.Environment.relay`), so the run schedules at most
5 calendar entries per served RPC; it scheduled 9.64 when each took its
own.  Which RPC is served when is pinned separately, by
``tests/sim/test_service_goldens.py``.
"""

from repro.cluster.builder import build
from repro.cluster.experiment import execute
from repro.scenarios import REGISTRY


def test_swarm_rw_schedules_at_most_5_events_per_rpc():
    spec = (
        REGISTRY.build(
            "client-swarm",
            n_osts=100,
            n_clients=2000,
            n_jobs=8,
            io_threads=4,
            op_mib=16.0,
            duration=0.0,
        )
        .with_run(seed=0)
        .with_workload(
            "mixed-rw", {"total_mib": 16.0, "chunk_mib": 1.0, "read_fraction": 0.5}
        )
    )
    cluster = build(spec)
    execute(cluster)
    served = sum(oss.completed_rpcs for oss in cluster.osses)
    assert served == 32000
    assert cluster.env.scheduled / served <= 5
