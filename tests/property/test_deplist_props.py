"""Property-based tests for dependency lists (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deplist import PRUNING_POLICIES, UNBOUNDED, DependencyList
from repro.db.database import Database, DatabaseConfig, TimingConfig
from repro.sim.core import Simulator
from tests.conftest import commit_update

keys = st.text(alphabet="abcdefgh", min_size=1, max_size=2)
versions = st.integers(min_value=0, max_value=50)
pairs = st.tuples(keys, versions)
pair_lists = st.lists(pairs, max_size=12)
direct_maps = st.dictionaries(keys, versions, max_size=8)
deplists = pair_lists.map(DependencyList.from_pairs)
inherited_lists = st.lists(deplists, max_size=4)
bounds = st.one_of(st.just(UNBOUNDED), st.integers(min_value=0, max_value=10))


class TestConstructionInvariants:
    @given(pair_lists)
    def test_no_duplicate_keys(self, raw) -> None:
        deps = DependencyList.from_pairs(raw)
        seen = [entry.key for entry in deps]
        assert len(seen) == len(set(seen))

    @given(pair_lists)
    def test_keeps_max_version_per_key(self, raw) -> None:
        deps = DependencyList.from_pairs(raw)
        for key, version in raw:
            required = deps.required_version(key)
            assert required is not None
            assert required >= version

    @given(pair_lists)
    def test_length_bounded_by_distinct_keys(self, raw) -> None:
        deps = DependencyList.from_pairs(raw)
        assert len(deps) == len({key for key, _ in raw})


class TestMergeInvariants:
    @given(direct_maps, inherited_lists, bounds)
    def test_respects_bound(self, direct, inherited, bound) -> None:
        merged = DependencyList.merge(direct, inherited, max_len=bound)
        if bound != UNBOUNDED:
            assert len(merged) <= bound

    @given(direct_maps, inherited_lists)
    def test_unbounded_merge_loses_nothing(self, direct, inherited) -> None:
        merged = DependencyList.merge(direct, inherited, max_len=UNBOUNDED)
        for key, version in direct.items():
            assert merged.required_version(key) >= version
        for source in inherited:
            for entry in source:
                assert merged.required_version(entry.key) >= entry.version

    @given(direct_maps, inherited_lists)
    def test_merged_versions_are_maxima(self, direct, inherited) -> None:
        """Every merged entry's version equals the maximum seen for its key
        across direct entries and all inherited lists (subsumption)."""
        merged = DependencyList.merge(direct, inherited, max_len=UNBOUNDED)
        for entry in merged:
            candidates = []
            if entry.key in direct:
                candidates.append(direct[entry.key])
            for source in inherited:
                version = source.required_version(entry.key)
                if version is not None:
                    candidates.append(version)
            assert entry.version == max(candidates)

    @given(direct_maps, inherited_lists, bounds)
    def test_direct_entries_survive_pruning_first(self, direct, inherited, bound) -> None:
        merged = DependencyList.merge(direct, inherited, max_len=bound)
        if bound == UNBOUNDED or len(direct) >= bound:
            # Every kept entry must be a direct one when direct alone
            # saturates the bound.
            if bound != UNBOUNDED:
                assert all(entry.key in direct for entry in merged)
        else:
            for key in direct:
                assert key in merged

    @given(direct_maps, inherited_lists, bounds, keys)
    def test_exclude_is_absent(self, direct, inherited, bound, excluded) -> None:
        merged = DependencyList.merge(direct, inherited, max_len=bound, exclude=excluded)
        assert excluded not in merged

    @given(
        direct_maps, inherited_lists, bounds, keys, st.sampled_from(PRUNING_POLICIES)
    )
    def test_projection_equals_merge_with_exclude(
        self, direct, inherited, bound, excluded, policy
    ) -> None:
        """One merge per commit, projected per written key (the coordinator's
        path), stores what a merge per key with ``exclude`` would."""
        full = DependencyList.merge(
            direct, inherited, max_len=UNBOUNDED, policy=policy
        )
        assert full.without(excluded, bound) == DependencyList.merge(
            direct, inherited, max_len=bound, exclude=excluded, policy=policy
        )

    @given(
        direct_maps,
        inherited_lists,
        st.dictionaries(keys, bounds, min_size=1, max_size=4),
        st.sampled_from(PRUNING_POLICIES),
    )
    def test_one_more_than_the_largest_bound_is_enough(
        self, direct, inherited, bound_of, policy
    ) -> None:
        """The commit path merges once at ``max(bounds) + 1`` (unbounded if
        any bound is) and projects per written key: same lists as projecting
        the unbounded merge, same as a merge per key with ``exclude``."""
        per_key = bound_of.values()
        shared_len = UNBOUNDED if UNBOUNDED in per_key else max(per_key) + 1
        capped = DependencyList.merge(
            direct, inherited, max_len=shared_len, policy=policy
        )
        full = DependencyList.merge(
            direct, inherited, max_len=UNBOUNDED, policy=policy
        )
        for key, bound in bound_of.items():
            stored = capped.without(key, bound)
            assert stored == full.without(key, bound)
            assert stored == DependencyList.merge(
                direct, inherited, max_len=bound, exclude=key, policy=policy
            )

    @given(
        direct_maps,
        inherited_lists,
        bounds,
        st.one_of(st.none(), keys),
        st.frozensets(keys, max_size=2),
        st.sampled_from(PRUNING_POLICIES),
    )
    def test_bare_entry_tuples_merge_like_their_lists(
        self, direct, inherited, bound, excluded, pinned, policy
    ) -> None:
        options = dict(max_len=bound, exclude=excluded, pinned=pinned, policy=policy)
        as_lists = DependencyList.merge(direct, inherited, **options)
        as_tuples = DependencyList.merge(
            direct, [source.entries for source in inherited], **options
        )
        mixed = DependencyList.merge(
            direct,
            [
                source.entries if index % 2 else source
                for index, source in enumerate(inherited)
            ],
            **options,
        )
        assert as_lists == as_tuples == mixed

    @given(direct_maps, inherited_lists, bounds)
    def test_merge_is_deterministic(self, direct, inherited, bound) -> None:
        once = DependencyList.merge(direct, inherited, max_len=bound)
        twice = DependencyList.merge(direct, inherited, max_len=bound)
        assert once == twice

    @given(direct_maps, st.lists(deplists, max_size=3), st.integers(1, 6))
    @settings(max_examples=50)
    def test_pruning_only_drops_never_mutates(self, direct, inherited, bound) -> None:
        bounded = DependencyList.merge(direct, inherited, max_len=bound)
        unbounded = DependencyList.merge(direct, inherited, max_len=UNBOUNDED)
        for entry in bounded:
            assert unbounded.required_version(entry.key) == entry.version


class TestRecencySemantics:
    @given(st.lists(st.tuples(keys, versions), min_size=1, max_size=8))
    def test_iteration_matches_as_pairs(self, raw) -> None:
        deps = DependencyList.from_pairs(raw)
        assert [
            (entry.key, entry.version) for entry in deps
        ] == list(deps.as_pairs())

    @given(direct_maps, inherited_lists)
    def test_merge_orders_direct_before_inherited(self, direct, inherited) -> None:
        merged = DependencyList.merge(direct, inherited, max_len=UNBOUNDED)
        entries = list(merged)
        inherited_only_seen = False
        for entry in entries:
            if entry.key in direct:
                assert not inherited_only_seen
            else:
                inherited_only_seen = True


OBJECTS = tuple("abcdefgh")
object_keys = st.sampled_from(OBJECTS)
update_transactions = st.lists(
    st.tuples(
        st.lists(object_keys, min_size=1, max_size=4, unique=True),  # read set
        st.lists(object_keys, min_size=1, max_size=3, unique=True),  # write set
    ),
    min_size=1,
    max_size=10,
)


class TestCommitAggregation:
    """What the database stores at commit against the §III-A definition.

    The coordinator aggregates once per transaction, capped at one entry
    more than the largest bound it serves, and projects per written object;
    an object with pinned dependencies is merged on its own. The reference
    below is one merge per written object with ``exclude``, straight from
    the entries read before the commit.
    """

    @given(
        update_transactions,
        st.sampled_from(PRUNING_POLICIES),
        st.integers(min_value=0, max_value=4),
        st.dictionaries(
            object_keys, st.sampled_from([0, 1, 7, UNBOUNDED]), max_size=3
        ),
        st.dictionaries(object_keys, st.sets(object_keys, min_size=1, max_size=2), max_size=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_stored_lists_equal_the_per_object_merge(
        self, transactions, policy, k, overrides, pins
    ) -> None:
        sim = Simulator()
        database = Database(
            sim,
            DatabaseConfig(
                deplist_max=k,
                timing=TimingConfig(0.0, 0.0, 0.0, 0.0),
                pruning_policy=policy,
            ),
        )
        database.load({key: 0 for key in OBJECTS})
        for key, bound in overrides.items():
            database.set_deplist_bound(key, bound)
        for carrier, dependencies in pins.items():
            for dependency in sorted(dependencies):
                database.pin_dependency(carrier, dependency)
        for read_set, write_set in transactions:
            touched = list(dict.fromkeys(read_set + write_set))
            before = {key: database.read_entry(key) for key in touched}
            committed = commit_update(sim, database, read_set, write_keys=write_set)
            direct = {
                key: committed.txn_id if key in write_set else before[key].version
                for key in touched
            }
            inherited = [
                DependencyList(before[key].deps) for key in touched
            ]
            for key in write_set:
                expected = DependencyList.merge(
                    direct,
                    inherited,
                    max_len=overrides.get(key, k),
                    exclude=key,
                    pinned=frozenset(pins.get(key, ())),
                    policy=policy,
                )
                assert database.read_entry(key).deps == expected.entries

    def test_pinned_object_takes_its_own_merge(self) -> None:
        """A pinned dependency outranks the recency order, so the pinned
        object's list is not a projection of the shared aggregation."""
        sim = Simulator()
        database = Database(
            sim, DatabaseConfig(deplist_max=1, timing=TimingConfig(0.0, 0.0, 0.0, 0.0))
        )
        database.load({key: 0 for key in "abz"})
        database.pin_dependency("a", "z")
        committed = commit_update(sim, database, ["a", "b", "z"], write_keys=["a", "b"])
        # Shared order is (a, b, z): b keeps a; a, pinned to z, keeps z, not b.
        assert database.read_entry("b").deps == (("a", committed.txn_id),)
        assert database.read_entry("a").deps == (("z", 0),)

