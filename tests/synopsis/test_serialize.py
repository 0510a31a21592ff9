"""Round-trip tests for the synopsis wire format."""

import json

import numpy as np
import pytest
import wire_cases

from repro import wire
from repro.errors import ConstructionError
from repro.geometry.rectangle import Rectangle
from repro.synopsis.cover import CoverSynopsis
from repro.synopsis.exact import ExactSynopsis
from repro.synopsis.gmm import GMMSynopsis
from repro.synopsis.histogram import HistogramSynopsis
from repro.synopsis.kernel import DirectionQuantileSynopsis
from repro.synopsis.quantile import QuantileHistogramSynopsis
from repro.synopsis.sample import EpsilonSampleSynopsis
from repro.synopsis.serialize import dumps, from_dict, loads, to_dict


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(41).uniform(size=(1500, 2))


class TestEpsilonSampleRoundTrip:
    def test_queries_identical(self, data, rng):
        original = EpsilonSampleSynopsis.from_points(
            data, size=200, rng=np.random.default_rng(2)
        )
        restored = loads(dumps(original))
        rect = Rectangle([0.1, 0.1], [0.6, 0.6])
        assert restored.mass(rect) == original.mass(rect)
        assert restored.delta_ptile == original.delta_ptile
        assert restored.delta_pref == original.delta_pref
        v = np.array([0.6, 0.8])
        assert restored.score(v, 30) == original.score(v, 30)
        assert restored.n_points == original.n_points


class TestCoverRoundTrip:
    def test_queries_identical(self, data):
        original = CoverSynopsis(data, radius=0.08)
        restored = loads(dumps(original))
        q = np.array([0.3, 0.9])
        assert restored.distance_to(q) == original.distance_to(q)
        assert restored.radius == original.radius
        assert np.array_equal(restored.cover_points, original.cover_points)


class TestQuantileRoundTrip:
    def test_queries_identical(self, data, rng):
        original = QuantileHistogramSynopsis(data, rng=np.random.default_rng(3))
        restored = loads(dumps(original))
        rect = Rectangle([0.2, 0.0], [0.8, 0.5])
        assert restored.mass(rect) == original.mass(rect)
        v = np.array([1.0, 1.0])
        assert restored.score(v, 15) == original.score(v, 15)
        s1 = restored.sample(50, np.random.default_rng(5))
        s2 = original.sample(50, np.random.default_rng(5))
        assert np.array_equal(s1, s2)


class TestGMMRoundTrip:
    def test_queries_identical(self, data):
        original = GMMSynopsis(
            data, n_components=3, rng=np.random.default_rng(7), n_iter=15
        )
        restored = loads(dumps(original))
        rect = Rectangle([0.1, 0.2], [0.7, 0.9])
        assert restored.mass(rect) == original.mass(rect)
        assert restored.delta_ptile == original.delta_ptile
        assert restored.delta_pref == original.delta_pref
        v = np.array([0.6, -0.8])
        assert restored.score(v, 40) == original.score(v, 40)
        assert restored.n_components == original.n_components
        assert restored.n_points == original.n_points
        s1 = restored.sample(30, np.random.default_rng(9))
        s2 = original.sample(30, np.random.default_rng(9))
        assert np.array_equal(s1, s2)


class TestGridHistogramRoundTrip:
    def test_queries_identical(self, data):
        original = HistogramSynopsis(data, bins=[8, 12])
        restored = loads(dumps(original))
        rect = Rectangle([0.15, 0.05], [0.55, 0.95])
        assert restored.mass(rect) == original.mass(rect)
        assert restored.delta_ptile == original.delta_ptile
        assert restored.delta_pref == original.delta_pref
        assert restored.bins_per_axis == original.bins_per_axis
        v = np.array([1.0, -1.0])
        assert restored.score(v, 25) == original.score(v, 25)
        s1 = restored.sample(40, np.random.default_rng(4))
        s2 = original.sample(40, np.random.default_rng(4))
        assert np.array_equal(s1, s2)


class TestDirectionQuantileRoundTrip:
    def test_queries_identical(self, data):
        original = DirectionQuantileSynopsis(
            data - 0.5, eps_dir=0.2, n_quantiles=16,
            rng=np.random.default_rng(6),
        )
        restored = loads(dumps(original))
        assert restored.delta_pref == original.delta_pref
        assert restored.n_directions == original.n_directions
        for v in (np.array([1.0, 0.0]), np.array([-0.3, 0.7])):
            for k in (1, 10, 100):
                assert restored.score(v, k) == original.score(v, k)
        vs = np.random.default_rng(8).normal(size=(12, 2))
        assert np.array_equal(
            restored.score_batch(vs, 10), original.score_batch(vs, 10)
        )


class TestFormat:
    def test_payload_is_json(self, data):
        payload = dumps(CoverSynopsis(data, radius=0.1))
        parsed = json.loads(payload)
        assert parsed["kind"] == "cover" and parsed["format"] == 1

    def test_unsupported_kind_rejected(self, data):
        with pytest.raises(ConstructionError):
            to_dict(ExactSynopsis(data))

    def test_bad_payloads_rejected(self):
        with pytest.raises(ConstructionError):
            from_dict({"kind": "alien", "format": 1})
        with pytest.raises(ConstructionError):
            from_dict({"kind": "cover", "format": 99})
        with pytest.raises(ConstructionError):
            from_dict("not a dict")  # type: ignore[arg-type]


def _every_kind(data):
    """One synopsis of every wire kind, small enough to sweep."""
    pts = data[:300]
    return [
        EpsilonSampleSynopsis.from_points(pts, size=20, rng=np.random.default_rng(2)),
        CoverSynopsis(pts, radius=0.2),
        QuantileHistogramSynopsis(pts, rng=np.random.default_rng(3)),
        GMMSynopsis(pts, n_components=2, rng=np.random.default_rng(7), n_iter=5),
        HistogramSynopsis(pts, bins=[3, 4]),
        DirectionQuantileSynopsis(
            pts - 0.5, eps_dir=0.5, n_quantiles=4, rng=np.random.default_rng(6)
        ),
    ]


def _malformations(payload):
    """``(label, payload)`` for every single-field malformation a sender can
    make of one ``to_dict`` output: each key dropped; each array field
    flattened one level (a flat one cut down to a scalar), emptied, made
    ragged, and given a ``null`` (NaN once decoded); each scalar replaced
    by a string, by ``true`` and by infinity."""
    for key, value in payload.items():
        if key in ("format", "kind"):
            continue
        edits = {"dropped": None}
        if isinstance(value, list):
            nested = isinstance(value[0], list)
            edits["flattened"] = sum(value, []) if nested else value[0]
            edits["emptied"] = []
            edits["ragged"] = [*value[:-1], [value[-1]]] if not nested else [
                *value[:-1], value[-1] + value[-1]
            ]
            hole = json.loads(json.dumps(value))
            (hole[0] if nested else hole)[0] = None
            edits["null inside"] = hole
        else:
            edits.update({"a string": "a", "a boolean": True, "infinite": float("inf")})
        for label, edit in edits.items():
            bad = {k: v for k, v in payload.items() if k != key}
            if label != "dropped":
                bad[key] = edit
            yield f"{payload['kind']}.{key} {label}", bad


class TestHostilePayloads:
    """Whatever a sender does to one field of a serialized synopsis, the
    decoder answers ``ConstructionError`` — not ``KeyError`` /
    ``IndexError`` / ``ValueError``, and not a synopsis holding NaN."""

    @pytest.mark.parametrize("synopsis", [
        {"kind": "eps-sample"},  # no subsample
        {"kind": "eps-sample", "subsample": [[0.1], [None]]},
        {"kind": "eps-sample", "subsample": [[0.1]], "n_points": "a"},
        {"kind": "cover", "radius": 0.1, "cover": [0.1, 0.2]},
        {"kind": "gmm", "weights": [1.0], "means": [0.5], "stds": [0.1]},
        {"kind": "grid-histogram", "edges": [[0.0]], "probs": [1.0]},
    ], ids=[f"hand-written-{i}" for i in range(6)])
    def test_hand_written_payloads_are_refused(self, synopsis):
        """Hand-made senders' mistakes, each a whole payload: a missing
        array, a ``null`` point, a string count, a flat cover, flat GMM
        parameters and a one-edge histogram axis."""
        with pytest.raises(ConstructionError):
            from_dict({"format": 1, "n_points": 9, "delta": 0.1,
                       "delta_pref": 0.1, **synopsis})

    def test_every_single_field_malformation_is_a_construction_error(self, data):
        checked = 0
        for synopsis in _every_kind(data):
            payload = json.loads(dumps(synopsis))
            from_dict(payload)  # pristine: decodes
            for label, bad in _malformations(payload):
                with pytest.raises(ConstructionError):
                    from_dict(bad)
                    pytest.fail(f"{label}: decoded")
                checked += 1
        assert checked > 100  # the sweep covers every field of every kind

    def test_every_generated_case_is_a_construction_error(self, data):
        """The sweep generated from ``wire.SYNOPSIS``: beyond the pass
        above, each bounded field pushed just past each bound (a negative
        ``delta`` is no error bound; ``n_points`` of 1e300 or 2.5 is no
        count), and strings / booleans / NaN inside every array."""
        checked, out_of_range = 0, 0
        for synopsis in _every_kind(data):
            payload = json.loads(dumps(synopsis))
            for label, bad in wire_cases.cases(wire.SYNOPSIS, payload):
                with pytest.raises(ConstructionError):
                    from_dict(bad)
                    pytest.fail(f"{payload['kind']} {label}: decoded")
                checked += 1
                out_of_range += " below " in label or " above " in label
        assert checked > 400 and out_of_range > 60

    @pytest.mark.parametrize("edit", [
        {"delta": -1.0}, {"delta_pref": -0.5}, {"n_points": 1e300},
        {"n_points": 2.5}, {"n_points": 0}, {"n_points": 2**53 + 2},
        {"subsample": [["0.1", "0.2"]]}, {"subsample": [[True, False]]},
    ])
    def test_out_of_range_and_non_numeric_fields_are_refused(self, data, edit):
        # Each loaded at the parent of PR 21.
        payload = json.loads(dumps(_every_kind(data)[0]))
        with pytest.raises(ConstructionError, match=next(iter(edit))):
            from_dict({**payload, **edit})

    def test_integers_may_arrive_as_floats(self, data):
        payload = json.loads(dumps(_every_kind(data)[0]))
        restored = from_dict({**payload, "n_points": float(payload["n_points"])})
        assert restored.n_points == payload["n_points"]
        assert type(restored.n_points) is int

    def test_mis_sized_arrays_are_refused(self, data):
        """Fields that must agree with each other: a shape the first query
        would trip over is refused at the door."""
        eps, _cover, quantile, gmm, grid, kernel = (
            json.loads(dumps(s)) for s in _every_kind(data)
        )
        cases = [
            {**eps, "n_points": 3},  # fewer points than the subsample
            {**quantile, "levels": quantile["levels"][:-1]},
            {**gmm, "weights": gmm["weights"][:-1]},
            {**gmm, "stds": [row[:-1] for row in gmm["stds"]]},
            {**grid, "probs": grid["probs"][:-1]},
            {**grid, "edges": [[0.0], grid["edges"][1]]},  # a one-edge axis
            {**kernel, "quantiles": kernel["quantiles"][:-1]},
        ]
        for bad in cases:
            with pytest.raises(ConstructionError):
                from_dict(bad)
