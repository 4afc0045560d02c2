"""Consistent-hash ring: determinism, balance, and stability."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dispatch.ring import DEFAULT_VNODES, HashRing
from repro.errors import ReproError
from repro.store.peers import parse_address

MEMBERS = ["10.0.0.1:8081", "10.0.0.2:8081", "10.0.0.3:8081"]


class TestRingBasics:
    def test_empty_ring_routes_nowhere(self):
        ring = HashRing()
        assert ring.route("anything") is None
        assert ring.preference("anything") == []
        assert len(ring) == 0

    def test_members_sorted_and_contains(self):
        ring = HashRing(reversed(MEMBERS))
        assert ring.members == tuple(sorted(MEMBERS))
        assert MEMBERS[0] in ring
        assert "10.9.9.9:1" not in ring

    def test_add_remove_idempotent(self):
        ring = HashRing(MEMBERS)
        ring.add(MEMBERS[0])
        assert len(ring) == len(MEMBERS)
        ring.remove("not-a-member")
        ring.remove(MEMBERS[0])
        ring.remove(MEMBERS[0])
        assert len(ring) == len(MEMBERS) - 1
        assert MEMBERS[0] not in ring

    def test_vnodes_validation(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)

    def test_route_is_first_preference(self):
        ring = HashRing(MEMBERS)
        for index in range(50):
            key = f"key-{index}"
            assert ring.route(key) == ring.preference(key)[0]

    def test_preference_distinct_and_complete(self):
        ring = HashRing(MEMBERS)
        for index in range(50):
            walk = ring.preference(f"key-{index}")
            assert sorted(walk) == sorted(MEMBERS)
        assert len(ring.preference("key", limit=2)) == 2


class TestRingProperties:
    def test_deterministic_across_instances(self):
        """Two routers with the same config route identically."""
        one = HashRing(MEMBERS)
        two = HashRing(list(reversed(MEMBERS)))
        keys = [f"job-{index}" for index in range(200)]
        assert [one.preference(k) for k in keys] == [
            two.preference(k) for k in keys
        ]

    def test_removal_moves_only_the_lost_members_keys(self):
        """The consistent-hashing contract: ejecting one member never
        reassigns a key that member did not own."""
        full = HashRing(MEMBERS)
        keys = [f"job-{index}" for index in range(500)]
        owners = {key: full.route(key) for key in keys}
        full.remove(MEMBERS[1])
        for key in keys:
            if owners[key] != MEMBERS[1]:
                assert full.route(key) == owners[key]

    def test_readmission_restores_original_owners(self):
        ring = HashRing(MEMBERS)
        keys = [f"job-{index}" for index in range(200)]
        before = [ring.route(key) for key in keys]
        ring.remove(MEMBERS[2])
        ring.add(MEMBERS[2])
        assert [ring.route(key) for key in keys] == before

    def test_distribution_roughly_uniform(self):
        ring = HashRing(MEMBERS, vnodes=DEFAULT_VNODES)
        owners = Counter(
            ring.route(f"job-{index}") for index in range(6000)
        )
        assert set(owners) == set(MEMBERS)
        # Generous bounds: vnodes smooth the arcs but don't equalize
        # them; what matters is that no member is starved or hogging.
        for count in owners.values():
            assert 6000 * 0.15 < count < 6000 * 0.55, owners

    @given(
        keys=st.lists(
            st.text(min_size=1, max_size=20), min_size=1, max_size=30
        ),
        drop=st.integers(min_value=0, max_value=2),
    )
    def test_failover_walk_skips_only_the_dropped_member(
        self, keys, drop
    ):
        """For any key, filtering a down member out of the preference
        walk yields exactly the walk of the ring without it — the
        property that keeps routers and retries consistent."""
        ring = HashRing(MEMBERS)
        smaller = HashRing([m for m in MEMBERS if m != MEMBERS[drop]])
        for key in keys:
            filtered = [
                m for m in ring.preference(key) if m != MEMBERS[drop]
            ]
            assert filtered == smaller.preference(key)


class TestParseReplica:
    def test_host_port(self):
        assert parse_address("10.1.2.3:8081") == ("10.1.2.3", 8081)

    def test_bare_port_defaults_to_localhost(self):
        assert parse_address("8081") == ("127.0.0.1", 8081)

    @pytest.mark.parametrize(
        "text", ["", "host:", "host:nope", "host:0", "host:70000", ":"]
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ReproError):
            parse_address(text)
