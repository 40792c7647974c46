"""Activation completions fire in simulated-time order across a restart.

An activation's completion — the network hand-off of its sends followed by
its deferred progress decrements — is scheduled at the worker's
``busy_until``.  A restart resets ``busy_until`` to the restart time, so a
cheap activation after the restart can complete *before* an expensive one
that began before the crash.  Each completion must therefore carry its own
state in its own heap entry: a per-worker first-in-first-out queue of
completion states would hand the pre-crash activation's messages and
decrements to the post-restart activation's (earlier) completion event.

The crash and restart below are the worker-level steps the chaos injector
performs, applied directly.
"""

from repro.timely.graph import Exchange, Pipeline
from repro.timely.operators import FnLogic
from tests.helpers import FAST_COST, make_dataflow

SLOW_S = 1.0


def _slow_forwarder(worker_id: int) -> FnLogic:
    def on_input(ctx, port, time, records):
        if "slow" in records:
            ctx.charge(SLOW_S)
        ctx.send(0, time, records)

    return FnLogic(on_input=on_input)


def _crash(worker) -> None:
    worker.alive = False
    worker.discard_pending_work()
    worker.release_all_capabilities()


def _restart(worker) -> None:
    worker.reinstall_operators()
    worker.alive = True


def test_completions_fire_in_heap_order_after_a_restart():
    # One worker per process: worker 0's sends to worker 1 cross a link.
    df = make_dataflow(num_workers=2, workers_per_process=1)
    sim = df.cluster.sim
    data, group = df.new_input("data")
    forwarded = data.unary("forward", _slow_forwarder, pact=Pipeline())
    forwarded.unary(
        "sink", lambda w: FnLogic(on_input=lambda *args: None), pact=Exchange(lambda r: 1)
    )
    runtime = df.build()
    worker = runtime.workers[0]
    forward_channel = runtime.channels_from(data.op_index, 0)[0].index
    exchange_channel = runtime.channels_from(forwarded.op_index, 0)[0].index

    handoffs = []  # (time, records) of every message worker 0 sends to worker 1
    consumed = []  # (time, channel, timestamp) of every in-flight decrement
    cluster_send = runtime.cluster.send
    tracker_consumed = runtime.tracker.message_consumed

    def send(message, on_delivered):
        if message.dst_worker == 1:
            handoffs.append((sim.now, list(message.payload.records)))
        return cluster_send(message, on_delivered)

    def message_consumed(channel, time, count=1):
        consumed.append((sim.now, channel, time))
        tracker_consumed(channel, time, count)

    runtime.cluster.send = send
    runtime.tracker.message_consumed = message_consumed

    handle = group.handle(0)
    sim.schedule_at(0.0, lambda: handle.send(0, ["slow"]))
    sim.schedule_at(0.1, lambda: _crash(worker))
    sim.schedule_at(0.2, lambda: _restart(worker))
    sim.schedule_at(0.3, lambda: handle.send(1, ["fast"]))
    sim.schedule_at(0.4, group.close_all)
    runtime.run_to_quiescence()

    # Source activation, then the forwarder's activation at the source's
    # completion; the forwarder's own completion hands its message off.
    source_cost = FAST_COST.batch_overhead + FAST_COST.ingest_record_cost
    forward_cost = FAST_COST.batch_overhead + FAST_COST.record_cost
    slow_done = source_cost + (forward_cost + SLOW_S)
    fast_done = 0.3 + source_cost + forward_cost
    assert fast_done < slow_done

    # The restarted worker's cheap activation completes first, and its
    # completion carries its own message — not the pre-crash one.
    assert handoffs == [(fast_done, ["fast"]), (slow_done, ["slow"])]
    # Each forwarder activation's consumed-batch decrement lands with its
    # own completion, in time order.
    forwarder = [(at, t) for at, channel, t in consumed if channel == forward_channel]
    assert forwarder == [(fast_done, 1), (slow_done, 0)]
    assert [at for at, _, _ in consumed] == sorted(at for at, _, _ in consumed)
    # Both messages reached worker 1 and were consumed there.
    assert sorted(t for _, channel, t in consumed if channel == exchange_channel) == [0, 1]
    assert runtime.idle()
