"""``Ticket.add_done_callback``: the thread-free half of a durable ack.

The callback must fire exactly once however registration and resolution
interleave, must see the outcome (``seq`` or ``error``) on the ticket,
must be reached by *every* resolver in the service (normal flush, fatal
flush, breaker trip), and must never be able to fail the flush that
resolved it.  ``Ticket.wait`` keeps working beside it.
"""

import sys
import threading

import numpy as np
import pytest

import repro.obs as obs
from repro.errors import BreakerOpenError, ServiceError
from repro.obs.metrics import MetricsRegistry
from repro.service import GraphService, TransientFaultInjector
from repro.service.service import Ticket

EDGE = np.array([[1, 2]], dtype=np.int64)


class TestCallbackOrdering:
    def test_registered_before_resolve(self):
        ticket, seen = Ticket(), []
        ticket.add_done_callback(seen.append)
        assert seen == []
        ticket._resolve(7, None)
        assert seen == [ticket]
        assert (ticket.seq, ticket.error) == (7, None)

    def test_registered_after_resolve_fires_immediately(self):
        ticket, seen = Ticket(), []
        ticket._resolve(3, None)
        ticket.add_done_callback(lambda t: seen.append(t.seq))
        assert seen == [3]

    def test_callback_sees_the_error(self):
        ticket, seen = Ticket(), []
        boom = OSError("disk gone")
        ticket.add_done_callback(lambda t: seen.append((t.seq, t.error)))
        ticket._resolve(None, boom)
        assert seen == [(None, boom)]

    def test_every_callback_fires_in_registration_order(self):
        ticket, seen = Ticket(), []
        for tag in "abc":
            ticket.add_done_callback(lambda t, tag=tag: seen.append(tag))
        ticket._resolve(1, None)
        assert seen == ["a", "b", "c"]

    def test_second_resolve_does_not_fire_again(self):
        ticket, seen = Ticket(), []
        ticket.add_done_callback(seen.append)
        ticket._resolve(1, None)
        ticket._resolve(None, ServiceError("late fatal"))
        assert len(seen) == 1

    def test_racing_resolve_fires_exactly_once(self):
        # Registration on this thread against resolution on another, a
        # few thousand times with a short switch interval: a lost or a
        # doubled callback both break the count.
        rounds = 3000
        tickets = [Ticket() for _ in range(rounds)]
        counts = [0] * rounds
        start = threading.Barrier(2)

        def resolver():
            start.wait(10)
            for i, ticket in enumerate(tickets):
                ticket._resolve(i, None)

        def bump(ticket):
            counts[ticket.seq] += 1

        prior = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread = threading.Thread(target=resolver)
            thread.start()
            start.wait(10)
            for ticket in tickets:
                ticket.add_done_callback(bump)
            thread.join(30)
            assert not thread.is_alive()
        finally:
            sys.setswitchinterval(prior)
        assert counts == [1] * rounds


class TestCallbackIsolation:
    def test_raising_callback_is_swallowed_and_counted(self):
        registry = MetricsRegistry()
        prior = obs.set_registry(registry)
        obs.enable()
        try:
            ticket, seen = Ticket(), []

            def bad(_):
                raise RuntimeError("Event loop is closed")

            ticket.add_done_callback(bad)
            ticket.add_done_callback(seen.append)
            ticket._resolve(1, None)          # must not raise
            ticket.add_done_callback(bad)     # nor on the late path
            assert seen == [ticket]
            assert ticket.wait(0) == 1
            assert registry.counter(
                "service.ticket.callback_errors").value == 2
        finally:
            obs.disable()
            obs.set_registry(prior)

    def test_raising_callback_does_not_kill_the_flusher(self, tmp_path):
        with GraphService(tmp_path, flush_interval=30.0) as svc:
            ticket = svc.submit_insert(EDGE)

            def bad(_):
                raise RuntimeError("consumer went away")

            ticket.add_done_callback(bad)
            svc.flush_now(timeout=10)
            assert svc.fatal_error is None
            assert ticket.wait(0) == 1
            later = svc.submit_insert(EDGE + 10)
            svc.flush_now(timeout=10)
            assert later.wait(0) == 2


class TestEveryResolverDelivers:
    def test_normal_flush(self, tmp_path):
        with GraphService(tmp_path) as svc:
            done = threading.Event()
            ticket = svc.submit_insert(EDGE)
            ticket.add_done_callback(lambda t: done.set())
            assert done.wait(10)
            assert ticket.error is None and ticket.seq == 1
            assert ticket.wait(0) == 1     # wait() unchanged beside it

    def test_fatal_flush_reaches_batch_and_queued(self, tmp_path):
        # batch_edges=1: the flusher takes one request per flush, so the
        # second ticket is still *queued* when the first flush dies.
        injector = TransientFaultInjector(fail_every=1, hard=True)
        svc = GraphService(tmp_path, batch_edges=1, flush_interval=30.0,
                           injector=injector)
        try:
            seen = []
            tickets = [svc.submit_insert(EDGE + i) for i in range(2)]
            for ticket in tickets:
                ticket.add_done_callback(lambda t: seen.append(t.error))
            with pytest.raises(ServiceError):
                svc.flush_now(timeout=10)
            assert svc.fatal_error is not None
            assert len(seen) == 2
            assert all(error is svc.fatal_error for error in seen)
            with pytest.raises(OSError):
                tickets[1].wait(0)
        finally:
            svc.close()

    def test_breaker_trip_reaches_batch_and_queued(self, tmp_path):
        injector = TransientFaultInjector(fail_every=1, hard=True)
        svc = GraphService(tmp_path, batch_edges=1, flush_interval=30.0,
                           injector=injector, breaker_threshold=1)
        try:
            seen = []
            tickets = [svc.submit_insert(EDGE + i) for i in range(3)]
            for ticket in tickets:
                ticket.add_done_callback(lambda t: seen.append(t.error))
            with pytest.raises(ServiceError):
                svc.flush_now(timeout=10)
            assert svc.fatal_error is None
            assert len(seen) == 3
            assert isinstance(seen[0], OSError)
            assert all(isinstance(e, BreakerOpenError) for e in seen[1:])
        finally:
            svc.close()
