"""The fault-injection machinery itself: spec parsing, arming, firing."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from peers import serving

from repro.core.framework import Repository
from repro.service import QueryService, faults
from repro.service.server import expression_to_json, make_server
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import batched_query_workload

SEED = 41
DIM = 1


@pytest.fixture(autouse=True)
def disarmed():
    faults.disarm()
    yield
    faults.disarm()


class TestSpecParsing:
    def test_parses_multiple_points(self):
        table = faults.parse_spec("shard_eval=sleep:0.5; handler=exit:3")
        assert table == {
            "shard_eval": ("sleep", 0.5),
            "handler": ("exit", 3.0),
        }

    def test_default_args(self):
        assert faults.parse_spec("handler=raise") == {"handler": ("raise", 0.0)}
        assert faults.parse_spec("handler=exit") == {"handler": ("exit", 1.0)}

    @pytest.mark.parametrize(
        "bad",
        [
            "typo_point=raise",          # unknown point must fail loudly
            "handler",                   # no action
            "handler=explode",           # unknown action
            "handler=sleep:soon",        # non-numeric arg
            "handler=sleep:-1",          # negative sleep
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            faults.parse_spec(bad)

    def test_arm_disarm_roundtrip(self):
        faults.arm("handler=sleep:0.1")
        assert faults.ARMED == {"handler": ("sleep", 0.1)}
        faults.disarm()
        assert faults.ARMED is None

    def test_arm_none_and_empty_disarm(self):
        faults.arm("handler=raise")
        faults.arm(None)
        assert faults.ARMED is None
        faults.arm("")
        assert faults.ARMED is None


class TestFiring:
    def test_unarmed_hit_is_noop(self):
        faults.hit("handler")  # nothing armed: must not raise

    def test_armed_other_point_is_noop(self):
        faults.arm("shard_eval=raise")
        faults.hit("handler")  # different point: must not raise

    def test_raise_action(self):
        faults.arm("handler=raise")
        with pytest.raises(faults.FailpointError) as exc_info:
            faults.hit("handler")
        assert exc_info.value.point == "handler"

    def test_sleep_action(self):
        faults.arm("handler=sleep:0.05")
        t0 = time.perf_counter()
        faults.hit("handler")
        assert time.perf_counter() - t0 >= 0.04

    def test_failpoint_error_is_not_a_client_error(self):
        from repro.errors import ReproError

        assert not issubclass(faults.FailpointError, ReproError)


class TestHandlerFailpoint:
    @pytest.fixture()
    def server(self):
        lake = synthetic_data_lake(
            8, DIM, np.random.default_rng(SEED), median_size=60
        )
        svc = QueryService(
            repository=Repository.from_arrays(lake),
            n_shards=2,
            eps=0.2,
            sample_size=8,
            seed=SEED,
        )
        with serving(make_server(svc, port=0)) as url:
            yield url
        svc.close()

    def test_raise_failpoint_becomes_500(self, server):
        (query,) = batched_query_workload(
            1, DIM, np.random.default_rng(SEED + 1)
        )
        payload = json.dumps(
            {"expression": expression_to_json(query)}
        ).encode()
        req = urllib.request.Request(
            f"{server}/search",
            data=payload,
            headers={"Content-Type": "application/json"},
        )
        faults.arm("handler=raise")
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=15)
        assert exc_info.value.code == 500
        faults.disarm()
        with urllib.request.urlopen(req, timeout=15) as resp:
            assert resp.status == 200
