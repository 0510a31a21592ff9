"""Theorem 5.4 guarantee tests for PrefIndex."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import DatasetSearchEngine
from repro.core.measures import PreferenceMeasure
from repro.core.predicates import And, Or, pred
from repro.core.pref_index import PrefIndex
from repro.errors import ConstructionError, QueryError
from repro.geometry.epsilon_net import nearest_net_vector
from repro.geometry.interval import Interval
from repro.index import ENGINES
from repro.synopsis.exact import ExactSynopsis
from repro.synopsis.kernel import DirectionQuantileSynopsis

K = 5


@pytest.fixture
def planted(rng):
    """20 datasets in the unit ball with varying top-score levels."""
    datasets = []
    for i in range(20):
        level = (i + 1) / 21  # controls how far out the blob reaches
        pts = rng.uniform(-0.3, 0.3, size=(200, 2)) * level + rng.uniform(
            -0.2, 0.2, size=2
        ) * level
        datasets.append(np.clip(pts, -0.99, 0.99))
    return datasets


@pytest.fixture
def index(planted):
    return PrefIndex([ExactSynopsis(p) for p in planted], k=K, eps=0.1)


def exact_score(pts, u, k=K):
    return float(np.sort(pts @ u)[len(pts) - k])


def algorithm5_oracle(index, live, u, a_theta):
    """Algorithms 5-6 as the paper lays them out: the datasets of the
    snapped net direction in descending shifted-score order, reported
    until one falls below ``a_theta - eps``.  ``live`` maps key ->
    ``(synopsis, delta)``; the keys come back ascending."""
    vi = nearest_net_vector(index.net, np.asarray(u, dtype=float))
    ordered = sorted(
        ((float(syn.score_batch(index.net, index.k)[vi]) + d, key)
         for key, (syn, d) in live.items()),
        reverse=True,
    )
    hits = []
    for score, key in ordered:
        if not score >= a_theta - index.eps:
            break
        hits.append(key)
    return sorted(hits)


class TestGuarantees:
    @pytest.mark.parametrize("a_theta", [-0.2, 0.0, 0.15])
    def test_recall(self, index, planted, a_theta, rng):
        for _ in range(5):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            truth = {i for i, p in enumerate(planted) if exact_score(p, u) >= a_theta}
            assert truth <= index.query(u, a_theta).index_set

    @pytest.mark.parametrize("a_theta", [0.0, 0.1])
    def test_precision(self, index, planted, a_theta, rng):
        """Lemma 5.2: reported j has omega_k(P_j, u) >= a - 2eps - 2delta."""
        for _ in range(5):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            for j in index.query(u, a_theta).indexes:
                assert exact_score(planted[j], u) >= a_theta - 2 * index.eps - 1e-9

    def test_no_duplicates(self, index, rng):
        u = rng.normal(size=2)
        res = index.query(u, -10.0)
        assert len(res.indexes) == len(set(res.indexes))
        assert res.out_size == 20

    def test_negative_direction_uses_symmetric_net(self, index, planted):
        """Central symmetry: -u queries are as accurate as +u queries."""
        u = np.array([1.0, 0.0])
        for j in index.query(-u, 0.0).indexes:
            assert exact_score(planted[j], -u) >= 0.0 - 2 * index.eps - 1e-9

    def test_net_size_order(self, planted):
        fine = PrefIndex([ExactSynopsis(p) for p in planted[:3]], k=1, eps=0.05)
        coarse = PrefIndex([ExactSynopsis(p) for p in planted[:3]], k=1, eps=0.4)
        assert fine.n_directions > coarse.n_directions


class TestSmallDatasets:
    def test_k_larger_than_dataset_never_reported(self, rng):
        tiny = ExactSynopsis(rng.uniform(-0.5, 0.5, size=(3, 2)))
        big = ExactSynopsis(rng.uniform(-0.5, 0.5, size=(100, 2)))
        index = PrefIndex([tiny, big], k=10, eps=0.2)
        res = index.query(np.array([1.0, 0.0]), a_theta=-0.99)
        assert 0 not in res.index_set
        assert 1 in res.index_set


class TestFederated:
    def test_kernel_synopses(self, planted, rng):
        syns = [DirectionQuantileSynopsis(p, eps_dir=0.1, rng=rng) for p in planted]
        index = PrefIndex(syns, k=K, eps=0.1)
        u = np.array([0.6, 0.8])
        a_theta = 0.1
        truth = {i for i, p in enumerate(planted) if exact_score(p, u) >= a_theta}
        got = index.query(u, a_theta).index_set
        assert truth <= got
        for j in got:
            slack = 2 * index.eps + 2 * index.delta_of(j)
            assert exact_score(planted[j], u) >= a_theta - slack - 1e-9

    def test_global_delta_override(self, planted):
        index = PrefIndex(
            [ExactSynopsis(p) for p in planted[:4]], k=1, eps=0.2, delta=0.25
        )
        assert all(index.delta_of(key) == 0.25 for key in range(4))


class TestDynamics:
    def test_insert(self, index, rng):
        strong = ExactSynopsis(np.full((50, 2), 0.7) + rng.uniform(-0.01, 0.01, (50, 2)))
        key = index.insert_synopsis(strong)
        u = np.array([1.0, 1.0]) / np.sqrt(2)
        assert key in index.query(u, 0.5).index_set

    def test_delete(self, index, rng):
        u = rng.normal(size=2)
        res = index.query(u, -10.0)
        victim = res.indexes[0]
        index.delete_synopsis(victim)
        assert victim not in index.query(u, -10.0).index_set
        with pytest.raises(KeyError):
            index.delete_synopsis(victim)

    def test_many_inserts_trigger_rebuild(self, planted, rng):
        index = PrefIndex([ExactSynopsis(p) for p in planted[:4]], k=1, eps=0.3)
        keys = [
            index.insert_synopsis(ExactSynopsis(rng.uniform(-0.5, 0.5, size=(30, 2))))
            for _ in range(30)
        ]
        res = index.query(np.array([1.0, 0.0]), -10.0)
        assert set(keys) <= res.index_set
        assert res.out_size == 34
        assert index.n_datasets == 34

    def test_dimension_mismatch(self, index, rng):
        with pytest.raises(ConstructionError):
            index.insert_synopsis(ExactSynopsis(rng.uniform(size=(10, 3))))

    @pytest.mark.parametrize("key", [-1, 20, 10**6])
    def test_unknown_key(self, index, key):
        with pytest.raises(KeyError):
            index.delete_synopsis(key)
        with pytest.raises(KeyError):
            index.delta_of(key)


# One step of a mutation history: ("insert", n_points, delta, seed),
# ("delete", pick) or ("query", angle, a_theta).
_thresholds = st.one_of(
    st.sampled_from([-math.inf, math.inf]), st.floats(-1.5, 1.5, allow_nan=False)
)
_steps = st.one_of(
    st.tuples(
        st.just("insert"),
        st.integers(1, 8),
        st.sampled_from([0.0, 0.05, 0.4]),
        st.integers(0, 2**16),
    ),
    st.tuples(st.just("delete"), st.integers(0, 2**16)),
    st.tuples(st.just("query"), st.floats(0.0, 2 * math.pi), _thresholds),
)
# Two initial columns, so seven inserts cross three capacity doublings
# (2 -> 4 -> 8 -> 16); then the last column is deleted and a new one added.
_PROLOGUE = [("insert", n, 0.05 * (n % 2), n) for n in range(1, 8)] + [
    ("delete", -1),
    ("insert", 5, 0.0, 99),
]


class TestOneStoreAgainstOracle:
    """The score matrix answers exactly what the ordered layout would."""

    def check(self, index, live, angle, a_theta):
        u = np.array([math.cos(angle), math.sin(angle)])
        want = algorithm5_oracle(index, live, u, a_theta)
        assert index.query(u, a_theta).indexes == want
        timed = index.query(u, a_theta, record_times=True)
        assert timed.indexes == want
        stamps = [timed.start_time, *timed.emit_times, timed.end_time]
        assert len(timed.emit_times) == len(want) and stamps == sorted(stamps)

    @settings(max_examples=40, deadline=None)
    @given(history=st.lists(_steps, max_size=30))
    def test_random_history(self, history):
        k = 3  # larger than some datasets below, so -inf scores occur
        rng = np.random.default_rng(7)
        first = [ExactSynopsis(rng.uniform(-1, 1, size=(n, 2))) for n in (2, 6)]
        index = PrefIndex(first, k=k, eps=0.3)
        live = {key: (syn, 0.0) for key, syn in enumerate(first)}
        capacity = index._scores.shape[1]
        next_key = len(first)
        for step in _PROLOGUE + history:
            if step[0] == "insert":
                _, n, delta, seed = step
                pts = np.random.default_rng(seed).uniform(-1, 1, size=(n, 2))
                syn = ExactSynopsis(pts)
                key = index.insert_synopsis(syn, delta=delta)
                assert key == next_key  # dense, never reused
                next_key += 1
                live[key] = (syn, delta)
            elif step[0] == "delete":
                if not live:
                    continue
                keys = sorted(live)
                victim = keys[-1] if step[1] == -1 else keys[step[1] % len(keys)]
                index.delete_synopsis(victim)
                del live[victim]
                with pytest.raises(KeyError):
                    index.delete_synopsis(victim)
            else:
                self.check(index, live, step[1], step[2])
            assert index.n_datasets == len(live)
        assert index._scores.shape[1] >= 4 * capacity
        for a_theta in (-math.inf, 0.0, math.inf):
            self.check(index, live, 0.3, a_theta)


class TestEveryEngineName:
    """``engine`` names an orthant backend; Pref leaves never see it."""

    def test_pref_bitmaps_identical_and_exact(self, planted):
        syns = [ExactSynopsis(p) for p in planted]
        vectors = [np.array([1.0, 0.0]), np.array([-0.6, 0.8]), np.array([0.3, -1.0])]
        leaves = [
            pred(PreferenceMeasure(v, k), tau)
            for v in vectors
            for k, tau in ((1, 0.1), (K, 0.0), (K, -0.2))
        ]
        batch = [
            And(leaves[:3]),
            Or(leaves[3:6]),
            And([leaves[0], Or([leaves[4], leaves[8]])]),
            Or([And([leaves[1], leaves[5]]), leaves[7]]),
        ]
        per_engine = {}
        for name in ENGINES:
            engine = DatasetSearchEngine(synopses=syns, eps=0.1, engine=name)
            leaf_bits = engine.eval_leaf_batch_bits(leaves, np.arange(len(syns)))
            for leaf, bits in zip(leaves, leaf_bits):
                index = engine.pref_index(leaf.measure.k)
                live = {i: (syn, index.delta_of(i)) for i, syn in enumerate(syns)}
                assert bits.to_list() == algorithm5_oracle(
                    index, live, leaf.measure.vector, leaf.theta.lo
                )
            per_engine[name] = leaf_bits + [
                engine.search(expr).bitmap for expr in batch
            ]
        for name in ENGINES:
            assert per_engine[name] == per_engine["kd"], name


class TestValidation:
    def test_bad_constructor_args(self, planted):
        syns = [ExactSynopsis(planted[0])]
        with pytest.raises(ConstructionError):
            PrefIndex([], k=1)
        with pytest.raises(ConstructionError):
            PrefIndex(syns, k=0)
        with pytest.raises(ConstructionError):
            PrefIndex(syns, k=1, eps=0.0)

    def test_query_vector_shape(self, index):
        with pytest.raises(QueryError):
            index.query(np.ones(3), 0.0)

    def test_query_expression_two_sided_rejected(self, index):
        with pytest.raises(QueryError):
            index.query_expression(np.array([1.0, 0.0]), Interval(0.0, 0.5))

    def test_record_times(self, index):
        res = index.query(np.array([1.0, 0.0]), -10.0, record_times=True)
        assert len(res.emit_times) == res.out_size
        assert res.max_delay() is not None
