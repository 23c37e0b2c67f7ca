"""Property-based tests for dependency lists (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deplist import PRUNING_POLICIES, UNBOUNDED, DependencyList

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
