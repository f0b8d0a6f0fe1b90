"""Tests for message matching and the per-rank MPI endpoint (MPI
semantics), none of which needs a job."""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.charm.messages import ANY_SOURCE, ANY_TAG, Mailbox, Message


def msg(src=0, dst=1, tag=0, comm=0, arrival=10, payload="p"):
    return Message(src=src, dst=dst, tag=tag, comm_id=comm, payload=payload,
                   nbytes=1, sent_at=0, arrival=arrival)


class TestMatching:
    def test_exact_match(self):
        assert msg(src=3, tag=7).matches(3, 7, 0)

    def test_any_source(self):
        assert msg(src=3).matches(ANY_SOURCE, 0, 0)

    def test_any_tag(self):
        assert msg(tag=9).matches(0, ANY_TAG, 0)

    def test_wrong_comm_never_matches(self):
        assert not msg(comm=1).matches(ANY_SOURCE, ANY_TAG, 0)

    def test_wrong_source(self):
        assert not msg(src=2).matches(3, ANY_TAG, 0)

    def test_wrong_tag(self):
        assert not msg(tag=1).matches(ANY_SOURCE, 2, 0)


class TestMailbox:
    def test_match_removes(self):
        box = Mailbox()
        box.deliver(msg(tag=5))
        m = box.post(recv(tag=5))
        assert m is not None
        assert len(box) == 0

    def test_match_none_when_empty(self):
        assert Mailbox().post(recv()) is None

    def test_peek_preserves(self):
        box = Mailbox()
        box.deliver(msg())
        assert box.peek(ANY_SOURCE, ANY_TAG, 0) is not None
        assert len(box) == 1

    def test_non_overtaking_same_sender(self):
        """MPI ordering: messages from one sender with matching
        signatures are received in send order."""
        box = Mailbox()
        first = msg(src=0, tag=1, arrival=10, payload="first")
        second = msg(src=0, tag=1, arrival=20, payload="second")
        box.deliver(first)
        box.deliver(second)
        assert box.post(recv(0, 1)).payload == "first"
        assert box.post(recv(0, 1)).payload == "second"

    def test_tag_selective_receive_can_overtake(self):
        """Different tags may be drained out of arrival order."""
        box = Mailbox()
        box.deliver(msg(tag=1, payload="a"))
        box.deliver(msg(tag=2, payload="b"))
        assert box.post(recv(tag=2)).payload == "b"
        assert box.post(recv(tag=1)).payload == "a"

    def test_pending_listing(self):
        box = Mailbox()
        box.deliver(msg())
        assert len(box.pending()) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    max_size=20))
    def test_match_drains_in_delivery_order_per_signature(self, sigs):
        box = Mailbox()
        for i, (src, tag) in enumerate(sigs):
            box.deliver(msg(src=src, tag=tag, payload=i))
        for src, tag in sigs:
            # repeatedly matching a present signature yields ascending
            # payload sequence per signature
            pass
        drained = []
        while True:
            m = box.post(recv())
            if m is None:
                break
            drained.append(m.payload)
        assert drained == sorted(drained)


def recv(src=ANY_SOURCE, tag=ANY_TAG, comm=0):
    """A receive as the endpoint sees one."""
    return SimpleNamespace(src=src, tag=tag, comm_id=comm)


class TestEndpoint:
    def test_delivery_completes_earliest_posted_receive(self):
        box = Mailbox()
        wild, exact = recv(), recv(src=0, tag=1)
        assert box.post(wild) is None and box.post(exact) is None
        assert box.deliver(msg(src=0, tag=1)) == (wild, False)
        assert box.deliver(msg(src=0, tag=1)) == (exact, False)
        assert box.posted() == [] and len(box) == 0

    def test_post_takes_earliest_arrived_message(self):
        box = Mailbox()
        box.deliver(msg(tag=1, payload="a"))
        box.deliver(msg(tag=1, payload="b"))
        assert box.post(recv(tag=1)).payload == "a"
        assert [m.payload for m in box.pending()] == ["b"]
        assert box.posted() == []

    def test_unmatched_message_is_queued_behind_posted_receives(self):
        box = Mailbox()
        box.post(recv(src=2))
        assert box.deliver(msg(src=1)) == (None, False)
        assert len(box) == 1 and len(box.posted()) == 1

    def test_only_an_awaited_completion_wakes(self):
        box = Mailbox()
        first, second, third = recv(tag=1), recv(tag=2), recv(tag=3)
        for r in (first, second, third):
            box.post(r)
        box.awaiting = (second, third)          # MPI_Waitany
        assert box.deliver(msg(tag=1)) == (first, False)
        assert box.deliver(msg(tag=3)) == (third, True)
        box.awaiting = (second,)                # MPI_Wait
        assert box.deliver(msg(tag=2)) == (second, True)

    def test_probe_wakes_on_a_queued_match_once(self):
        box = Mailbox()
        box.probing = (ANY_SOURCE, 7, 0)
        assert box.deliver(msg(tag=1)) == (None, False)
        assert box.probing is not None
        assert box.deliver(msg(tag=7)) == (None, True)
        assert box.probing is None
        assert box.deliver(msg(tag=7)) == (None, False)

    def test_probe_is_not_answered_by_a_message_a_receive_took(self):
        box = Mailbox()
        box.post(recv(tag=7))
        box.probing = (ANY_SOURCE, 7, 0)
        assert box.deliver(msg(tag=7))[1] is False
        assert box.probing is not None

    def test_reset_forgets_everything(self):
        box = Mailbox()
        box.deliver(msg())
        box.post(recv(tag=9))
        box.awaiting, box.probing = (recv(),), (0, 0, 0)
        box.initialized = box.finalized = True
        box.reset()
        assert (len(box), box.posted(), box.awaiting, box.probing,
                box.initialized, box.finalized) == (
                    0, [], (), None, False, False)


SOURCES = st.sampled_from([ANY_SOURCE, 0, 1, 2, 3])
TAGS = st.sampled_from([ANY_TAG, 0, 1, 2])
COMMS = st.integers(0, 1)
OPS = st.one_of(
    st.tuples(st.just("post"), SOURCES, TAGS, COMMS),
    st.tuples(st.just("deliver"), st.integers(0, 3), st.integers(0, 2),
              COMMS),
    st.tuples(st.just("peek"), SOURCES, TAGS, COMMS),
    st.tuples(st.just("probe"), SOURCES, TAGS, COMMS),
    st.tuples(st.just("await"), st.integers(1, 7)),
    st.tuples(st.just("reset")),
)


class Reference:
    """MPI matching, naively: two lists, linear scans in MPI order."""

    def __init__(self):
        self.queue, self.receives = [], []

    def post(self, r):
        for i, m in enumerate(self.queue):
            if m.matches(r.src, r.tag, r.comm_id):
                return self.queue.pop(i)
        self.receives.append(r)
        return None

    def deliver(self, m):
        for i, r in enumerate(self.receives):
            if m.matches(r.src, r.tag, r.comm_id):
                return self.receives.pop(i)
        self.queue.append(m)
        return None

    def peek(self, src, tag, comm):
        return next((m for m in self.queue if m.matches(src, tag, comm)),
                    None)


class TestEndpointAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(OPS, max_size=40))
    def test_random_sequences(self, ops):
        box, ref = Mailbox(), Reference()
        arrived: list[Message] = []     # this epoch's, in delivery order
        consumed: set[int] = set()      # ``seq`` of messages receives took

        def consume(r, m):
            assert m.seq not in consumed, "a message was consumed twice"
            # Non-overtaking: no earlier, still unconsumed message of the
            # same sender and communicator could have served r instead.
            for earlier in arrived[:arrived.index(m)]:
                assert not (earlier.seq not in consumed
                            and earlier.src == m.src
                            and earlier.comm_id == m.comm_id
                            and earlier.matches(r.src, r.tag, r.comm_id))
            consumed.add(m.seq)

        for op, *args in ops:
            if op == "post":
                r = recv(*args)
                got = box.post(r)
                assert got is ref.post(r)
                if got is not None:
                    consume(r, got)
            elif op == "deliver":
                m = msg(src=args[0], tag=args[1], comm=args[2])
                arrived.append(m)
                awaited, probe = box.awaiting, box.probing
                r, wake = box.deliver(m)
                assert r is ref.deliver(m)
                if r is not None:
                    consume(r, m)
                    assert wake == any(r is a for a in awaited)
                    assert box.probing == probe
                else:
                    assert wake == (probe is not None
                                    and m.matches(*probe))
                    assert box.probing is (None if wake else probe)
            elif op == "peek":
                before = box.pending(), box.posted()
                assert box.peek(*args) is ref.peek(*args)
                assert (box.pending(), box.posted()) == before
            elif op == "probe":
                box.probing = tuple(args)
            elif op == "await":
                posted = box.posted()
                box.awaiting = tuple(r for i, r in enumerate(posted)
                                     if args[0] >> (i % 3) & 1)
            else:
                box.reset()
                ref, arrived = Reference(), []
                assert (len(box), box.posted(), box.awaiting,
                        box.probing) == (0, [], (), None)
            # the same objects in the same order, not merely equal ones
            assert [*map(id, box.pending())] == [*map(id, ref.queue)]
            assert [*map(id, box.posted())] == [*map(id, ref.receives)]
