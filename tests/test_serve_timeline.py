"""Unit tests for the serving timeline (heap event loop)."""

import pytest

from repro.errors import ConfigurationError
from repro.serve.timeline import (
    SchedulingDone,
    Ticket,
    Timeline,
    VectorArrival,
    VectorCompletion,
)
from tests.conftest import make_vector


def ticket(vector_id=0):
    return Ticket(vector=make_vector(n_pairs=2, vector_id=vector_id), arrival_s=0.0)


class TestTimeline:
    def test_pops_in_time_order(self):
        tl = Timeline()
        tl.push(VectorArrival(3.0, ticket(0)))
        tl.push(VectorArrival(1.0, ticket(1)))
        tl.push(VectorArrival(2.0, ticket(2)))
        order = [tl.pop().time_s for _ in range(3)]
        assert order == [1.0, 2.0, 3.0]

    def test_ties_resolve_in_push_order(self):
        tl = Timeline()
        a, b = ticket(0), ticket(1)
        tl.push(VectorCompletion(1.0, a))
        tl.push(VectorArrival(1.0, b))
        assert tl.pop().ticket is a
        assert tl.pop().ticket is b

    def test_pop_advances_now(self):
        tl = Timeline()
        tl.push(VectorArrival(2.5, ticket()))
        assert tl.now == 0.0
        tl.pop()
        assert tl.now == 2.5

    def test_push_into_past_rejected(self):
        tl = Timeline()
        tl.push(VectorArrival(2.0, ticket()))
        tl.pop()
        with pytest.raises(ConfigurationError):
            tl.push(SchedulingDone(1.0, ticket()))

    def test_negative_event_time_rejected(self):
        with pytest.raises(ConfigurationError):
            VectorArrival(-1.0, ticket())

    def test_nan_event_time_rejected(self):
        with pytest.raises(ConfigurationError):
            VectorArrival(float("nan"), ticket())
        # An event whose time turned NaN after construction is still
        # refused at push, before it can break heap order.
        event = VectorArrival(1.0, ticket())
        object.__setattr__(event, "time_s", float("nan"))
        tl = Timeline()
        with pytest.raises(ConfigurationError):
            tl.push(event)
        assert not tl

    def test_len_and_bool(self):
        tl = Timeline()
        assert not tl and len(tl) == 0
        tl.push(VectorArrival(1.0, ticket()))
        assert tl and len(tl) == 1

    def test_empty_pop_and_peek_raise(self):
        tl = Timeline()
        with pytest.raises(IndexError):
            tl.pop()
        with pytest.raises(IndexError):
            tl.peek_time()

    def test_peek_does_not_advance(self):
        tl = Timeline()
        tl.push(VectorArrival(4.0, ticket()))
        assert tl.peek_time() == 4.0
        assert tl.now == 0.0
        assert len(tl) == 1


class TestReservedSequence:
    def test_reserved_pushes_pop_in_time_then_seq_order(self):
        tl = Timeline()
        first = tl.reserve(3)
        # Pushed out of order, at one timestamp: the reserved numbers decide.
        tickets = [ticket(i) for i in range(3)]
        for k in (2, 0, 1):
            tl.push(VectorArrival(1.0, tickets[k]), seq=first + k)
        tl.push(VectorArrival(0.5, ticket(9)), seq=first + 2)  # earlier time wins
        assert tl.pop().ticket.vector.vector_id == 9
        assert [tl.pop().ticket for _ in range(3)] == tickets

    def test_reserved_beat_later_pushes_at_equal_time(self):
        tl = Timeline()
        tl.push(VectorArrival(1.0, ticket(0)))
        first = tl.reserve(2)
        tl.push(VectorCompletion(1.0, ticket(5)))  # unreserved: after the block
        tl.push(VectorArrival(1.0, ticket(2)), seq=first + 1)
        tl.push(VectorArrival(1.0, ticket(1)), seq=first)
        ids = [tl.pop().ticket.vector.vector_id for _ in range(4)]
        assert ids == [0, 1, 2, 5]

    def test_reserve_zero_takes_nothing(self):
        tl = Timeline()
        assert tl.reserve(0) == tl.reserve(2) == 0
        assert tl.reserve(1) == 2
        with pytest.raises(ConfigurationError):
            tl.reserve(-1)
