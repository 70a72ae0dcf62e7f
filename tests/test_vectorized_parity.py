"""Bitwise-parity locks for the vectorized cold-path pipeline.

Four properties pin the fast paths to the scalar implementations they
replaced: batch feature matrices equal row-by-row feature vectors
(exactly — same bits, not just close), packed ensemble evaluation equals
the per-tree Python loop, incrementally maintained fleet signatures and
their signature index equal a from-scratch recomputation after arbitrary
mutation sequences, and the policies' grouped candidate scan picks what
a per-server scan picks, through the same cache lookups.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import (
    aggregate_intensity,
    aggregate_intensity_matrix,
    cm_feature_matrix,
    cm_feature_vector,
    rm_feature_matrix,
    rm_feature_vector,
)
from repro.core.training import ColocationSpec
from repro.games.resolution import Resolution
from repro.hardware.resources import NUM_RESOURCES
from repro.ml import (
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.placement.cache import PredictionCache
from repro.placement.fleet import FleetState, Session
from repro.placement.policies import CMFeasiblePolicy, MaxFPSPolicy
from repro.placement.signature import (
    colocation_key,
    entry_of,
    group_plain,
    signature_add,
    signature_of,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False)


def _array(data, shape, elements=finite):
    size = int(np.prod(shape))
    flat = data.draw(st.lists(elements, min_size=size, max_size=size))
    return np.asarray(flat, dtype=float).reshape(shape)


class TestBatchFeatureParity:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_aggregate_matrix_matches_scalar(self, data):
        g = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(2, 4))
        stacks = _array(data, (g, n, NUM_RESOURCES))
        out = aggregate_intensity_matrix(stacks)
        for gi in range(g):
            for i in range(n):
                co = [stacks[gi, j] for j in range(n) if j != i]
                expected = aggregate_intensity(co)
                assert np.array_equal(out[gi, i], expected)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_rm_matrix_matches_scalar_rows(self, data):
        g = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(2, 4))
        d = data.draw(st.integers(1, 8))
        sens = _array(data, (g, n, d))
        stacks = _array(data, (g, n, NUM_RESOURCES))
        X = rm_feature_matrix(sens, stacks)
        for gi in range(g):
            for i in range(n):
                co = [stacks[gi, j] for j in range(n) if j != i]
                row = rm_feature_vector(sens[gi, i], co)
                assert np.array_equal(X[gi * n + i], row)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_cm_matrix_matches_scalar_rows(self, data):
        g = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(2, 4))
        d = data.draw(st.integers(1, 8))
        qos = data.draw(positive)
        solo = _array(data, (g, n), elements=positive)
        sens = _array(data, (g, n, d))
        stacks = _array(data, (g, n, NUM_RESOURCES))
        X = cm_feature_matrix(qos, solo, sens, stacks)
        for gi in range(g):
            for i in range(n):
                co = [stacks[gi, j] for j in range(n) if j != i]
                row = cm_feature_vector(qos, float(solo[gi, i]), sens[gi, i], co)
                assert np.array_equal(X[gi * n + i], row)


def _fit_models():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(250, 6))
    y_reg = X[:, 0] - 2.0 * X[:, 1] + rng.normal(scale=0.2, size=250)
    y_bin = (X[:, 0] + X[:, 2] > 0).astype(int)
    # Three classes so bootstrap resamples can miss one, exercising the
    # classifier pack's class-order projection.
    y_multi = rng.integers(0, 3, size=250)
    return {
        "forest_reg": RandomForestRegressor(n_estimators=20, seed=1).fit(X, y_reg),
        "forest_clf": RandomForestClassifier(n_estimators=20, seed=2).fit(X, y_multi),
        "gbrt": GradientBoostingRegressor(n_estimators=30, seed=3).fit(X, y_reg),
        "gbdt": GradientBoostingClassifier(n_estimators=30, seed=4).fit(X, y_bin),
    }


MODELS = _fit_models()


class TestPackedEnsembleParity:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_forest_regressor_matches_tree_loop(self, data):
        n = data.draw(st.integers(1, 12))
        X = _array(data, (n, 6), elements=st.floats(-5, 5, allow_nan=False))
        model = MODELS["forest_reg"]
        expected = np.mean([t.predict(X) for t in model.estimators_], axis=0)
        assert np.array_equal(model.predict(X), expected)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_forest_classifier_matches_tree_loop(self, data):
        n = data.draw(st.integers(1, 12))
        X = _array(data, (n, 6), elements=st.floats(-5, 5, allow_nan=False))
        model = MODELS["forest_clf"]
        proba = np.zeros((n, model.classes_.shape[0]))
        for t in model.estimators_:
            cols = np.searchsorted(model.classes_, t.classes_)
            proba[:, cols] += t.predict_proba(X)
        proba /= model.n_estimators
        assert np.array_equal(model.predict_proba(X), proba)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_boosting_matches_stage_loop(self, data):
        n = data.draw(st.integers(1, 12))
        X = _array(data, (n, 6), elements=st.floats(-5, 5, allow_nan=False))
        for key, raw_of in (("gbrt", "predict"), ("gbdt", "decision_function")):
            model = MODELS[key]
            expected = np.full(n, model.init_)
            for t in model.estimators_:
                expected += model.learning_rate * t.predict(X)
            assert np.array_equal(getattr(model, raw_of)(X), expected)


GAMES = ["dota2", "csgo", "hl2", "tf2"]
RESOLUTIONS = [Resolution(1920, 1080), Resolution(1280, 720)]

fleet_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["place_new", "place_join", "depart", "crash", "update_resolution"]
        ),
        st.integers(0, 10 ** 6),
    ),
    min_size=1,
    max_size=40,
)


class _LiveMembers:
    """Fleet observer tracking each live member's server and session."""

    def __init__(self):
        self.live = {}  # member id -> (server id, session)

    def fleet_placed(self, server_id, member_id, session):
        self.live[member_id] = (server_id, session)

    def fleet_departed(self, server_id, member_id, session, t):
        del self.live[member_id]

    def fleet_evicted(self, server_id, ordered):
        for member_id, _ in ordered:
            del self.live[member_id]

    def fleet_resolution_changed(self, server_id, member_id, old, new):
        self.live[member_id] = (server_id, new)


def _assert_index_matches(fleet):
    """The interned index equals one recomputed from ``signatures()``."""
    sigs = fleet.signatures()
    servers_of = {}
    for server_id, sig in zip(fleet.server_ids(), sigs):
        servers_of.setdefault(sig, []).append(server_id)
    buckets = fleet.signature_buckets()
    # One id per distinct signature, filed under its size.
    assert len(buckets) == len(servers_of)
    assert all(size == len(sig) for (size, _), (sig, _) in buckets.items())
    assert {sig: ids for (sig, ids) in buckets.values()} == servers_of
    id_of = {sig: sig_id for (_, sig_id), (sig, _) in buckets.items()}
    for max_size in (None, 1, 2, 3, 4):
        groups = sigs.groups(max_size)
        assert [(i, sig) for i, _, sig in groups] == [
            (i, sig) for i, _, sig in group_plain(list(sigs), max_size)
        ]
        assert all(sig_id == id_of[sig] for _, sig_id, sig in groups)


class TestIncrementalSignatureParity:
    @given(fleet_ops)
    @settings(max_examples=60, deadline=None)
    def test_signatures_match_recomputation(self, ops):
        members = _LiveMembers()
        fleet = FleetState(observer=members)
        clock = 0.0
        for op, r in ops:
            if op == "place_new" or fleet.n_open == 0:
                session = Session(
                    GAMES[r % len(GAMES)],
                    RESOLUTIONS[r % len(RESOLUTIONS)],
                    arrival=clock,
                    duration=1.0 + (r % 7),
                )
                fleet.place(None, session)
            elif op == "place_join":
                session = Session(
                    GAMES[r % len(GAMES)],
                    RESOLUTIONS[(r // 2) % len(RESOLUTIONS)],
                    arrival=clock,
                    duration=1.0 + (r % 5),
                )
                fleet.place(r % fleet.n_open, session)
            elif op == "depart":
                clock += 1.0 + (r % 3)
                fleet.pop_departures(clock)
            elif op == "update_resolution":
                member_id = sorted(members.live)[r % len(members.live)]
                server_id, session = members.live[member_id]
                resolution = RESOLUTIONS[(r // 3) % len(RESOLUTIONS)]
                fleet.update_resolution(
                    server_id, member_id, replace(session, resolution=resolution)
                )
            else:
                fleet.crash(fleet.server_ids()[r % fleet.n_open])
            recomputed = [
                signature_of(fleet.members(sid)) for sid in fleet.server_ids()
            ]
            assert fleet.signatures() == recomputed
            _assert_index_matches(fleet)

    def test_stale_snapshot_groups_its_own_contents(self):
        fleet = FleetState()
        fleet.place(None, Session("dota2", RESOLUTIONS[0], 0.0, 5.0))
        before = fleet.signatures()
        fleet.place(None, Session("csgo", RESOLUTIONS[0], 0.0, 5.0))
        assert [sig for _, _, sig in before.groups()] == list(before)


ENTRIES = [(game, res) for game in GAMES[:3] for res in RESOLUTIONS]

#: Pools with duplicate signatures, full servers (size 4) and size ties.
pools = st.lists(
    st.lists(st.sampled_from(ENTRIES), min_size=1, max_size=4).map(
        lambda entries: tuple(sorted(entries))
    ),
    min_size=0,
    max_size=14,
)


class _RecordingCache(PredictionCache):
    def __init__(self):
        super().__init__()
        self.keys = []

    def lookup(self, key, default=None):
        self.keys.append(key)
        return super().lookup(key, default)


class _ScoringPredictor:
    """Deterministic stand-in: verdicts and FPS are functions of the entries."""

    @staticmethod
    def _fps(spec):
        return [
            40.0 + (len(name) * res.width // 64) % 37 - 9.0 * len(spec.entries)
            for name, res in spec.entries
        ]

    def colocations_feasible(self, specs, floor):
        return [min(self._fps(spec)) >= floor for spec in specs]

    def predict_fps_batch(self, specs):
        return [np.array(self._fps(spec)) for spec in specs]


def _pool_fleet(sigs):
    fleet = FleetState()
    for idx, sig in enumerate(sigs):
        fleet.place(None, Session(sig[0][0], sig[0][1], 0.0, 10.0))
        for game, res in sig[1:]:
            fleet.place(idx, Session(game, res, 0.0, 10.0))
    assert fleet.signatures() == sigs
    return fleet


def _reference_scan(kind, sigs, session, cache, qos, cap=4):
    """Per-server scan: every non-full server, deduped lookups, earliest of equals."""
    floor = qos if kind == "cm" else None
    entry, answers, unknown = entry_of(session), {}, []
    candidates = [
        (idx, len(sig), signature_add(sig, entry))
        for idx, sig in enumerate(sigs)
        if len(sig) < cap
    ]
    for _, _, cand in candidates:
        if cand not in answers and cand not in unknown:
            hit = cache.lookup(colocation_key(cand, floor), None)
            if hit is None:
                unknown.append(cand)
            else:
                answers[cand] = hit
    predictor, specs = _ScoringPredictor(), [ColocationSpec(c) for c in unknown]
    if kind == "cm":
        fresh = predictor.colocations_feasible(specs, qos)
    else:
        batch = predictor.predict_fps_batch(specs)
        fresh = [tuple(float(v) for v in fps) for fps in batch]
    for cand, answer in zip(unknown, fresh):
        answers[cand] = answer
        cache.put(colocation_key(cand, floor), answer)
    best, best_score = None, -np.inf
    for idx, size, cand in candidates:
        if kind == "cm":
            score = size if answers[cand] else -np.inf
        else:
            score = sum(answers[cand]) if min(answers[cand]) >= qos else -np.inf
        if score > best_score:
            best, best_score = idx, score
    return best


class TestGroupedScanParity:
    @given(
        pools,
        st.lists(st.sampled_from(ENTRIES), min_size=1, max_size=3),
        st.sets(st.integers(0, 60)),
        st.sampled_from([20.0, 30.0, 40.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_grouped_scan_matches_per_server_scan(self, sigs, entries, warm, qos):
        # Each arrival is scanned twice, so the second scan runs on
        # memoized candidates; several arrivals share one policy.
        arrivals = [Session(g, r, 0.0, 10.0) for g, r in entries] * 2
        fleet = _pool_fleet(sigs)
        for kind, make, floor in (
            ("cm", CMFeasiblePolicy, qos),
            ("fps", MaxFPSPolicy, None),
        ):
            # Pre-warm some candidate keys so scans see hits and misses.
            def cache():
                cache = _RecordingCache()
                for n, sig in enumerate(sigs):
                    if n in warm and len(sig) < 4:
                        entry = ENTRIES[n % len(ENTRIES)]
                        key = colocation_key(signature_add(sig, entry), floor)
                        cache.put(key, kind == "cm" or (50.0,) * (len(sig) + 1))
                return cache

            ref_cache = cache()
            expected = [
                _reference_scan(kind, sigs, session, ref_cache, qos)
                for session in arrivals
            ]
            for pool in (fleet.signatures(), list(sigs)):
                policy = make(_ScoringPredictor(), qos, cache=cache())
                assert [policy.select(pool, s) for s in arrivals] == expected
                if kind == "cm":
                    assert policy.cache.keys == ref_cache.keys
                    assert (policy.cache.hits, policy.cache.misses) == (
                        ref_cache.hits,
                        ref_cache.misses,
                    )


class TestDistinctCandidateLookups:
    """One cache lookup per distinct candidate, even on a cold cache."""

    A, B, C = ((game, RESOLUTIONS[0]) for game in GAMES[:3])
    POOL = [(A,), (A,), (B,), (A,), (C, C, C, C), (B,)]

    @pytest.mark.parametrize("make", [CMFeasiblePolicy, MaxFPSPolicy])
    def test_duplicates_looked_up_once(self, make):
        session = Session(GAMES[0], RESOLUTIONS[0], 0.0, 10.0)
        for pool in (self.POOL, _pool_fleet(self.POOL).signatures()):
            policy = make(_ScoringPredictor(), 1.0, cache=_RecordingCache())
            policy.select(pool, session)
            # (A, A) and (A, B); the full server is never a candidate.
            assert len(policy.cache.keys) == policy.cache.misses == 2
