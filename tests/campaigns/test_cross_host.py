"""Cross-host determinism: a point's key and record depend on the point alone.

Queue workers may run other interpreters -- another ``PYTHONHASHSEED``,
the ``spawn`` start method rather than ``fork`` (which inherits the parent's
hash secret and imported state).  Keys are rebuilt from declared params, and
records and observed digests come from seeded simulation, so all three must
come out byte-identical wherever a point runs.  The points cover kind x
stack pairs with a non-default stack or batching param and a heartbeat
detector with a non-default period.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

from repro.campaigns.records import execute_point
from repro.campaigns.spec import PointSpec
from repro.scenarios.registry import get_kind

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

POINTS = [
    dict(kind="crash-steady", stack="fd", crashed=[2], max_batch=2, max_delay=1.0),
    dict(kind="churn-steady", stack="gm", fd_kind="heartbeat", heartbeat_period=20.0,
         churn_rate=2.0, mean_downtime=100.0),
    dict(kind="service-load", stack="gm-reform", max_batch=4, max_delay=2.0, clients=4,
         think_time=5.0, reformation_timeout=300.0),
    dict(kind="suspicion-steady", stack="gm-nonuniform", mistake_recurrence_time=200.0,
         mistake_duration=5.0, join_retry_interval=100.0),
]
COMMON = dict(n=3, seed=5, throughput=50.0, num_messages=15)

#: What one interpreter makes of the points: their keys and records.
SCRIPT = """
import json, sys
from repro.campaigns.records import execute_point
from repro.campaigns.spec import PointSpec
points = [PointSpec.from_dict(data) for data in json.loads(sys.argv[1])]
print(json.dumps([[point.key(), execute_point(point)] for point in points], sort_keys=True))
"""


#: The observed digest of each point's run, in another interpreter.
DIGESTS = """
import json, sys
from repro.campaigns.spec import PointSpec
from repro.scenarios.registry import get_kind
points = [PointSpec.from_dict(data) for data in json.loads(sys.argv[1])]
print(json.dumps([get_kind(p.kind).run(p.config(), p, p.params).observed_digest for p in points]))
"""


def digest(point):
    """The observed digest of one run of ``point``."""
    return get_kind(point.kind).run(point.config(), point, point.params).observed_digest


def points():
    return [PointSpec.from_dict({**COMMON, **data}) for data in POINTS]


def here():
    return json.dumps([[point.key(), execute_point(point)] for point in points()], sort_keys=True)


def in_interpreter(hash_seed, script=SCRIPT):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")])
    wire = json.dumps([point.as_dict() for point in points()])
    done = subprocess.run(
        [sys.executable, "-c", script, wire], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_keys_and_records_are_identical_under_two_hash_seeds():
    expected = here()
    assert in_interpreter(0) == expected
    assert in_interpreter(4242) == expected


def test_records_are_identical_under_the_spawn_start_method():
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        spawned = list(pool.map(execute_point, points()))
    assert json.dumps(spawned, sort_keys=True) == json.dumps(
        [execute_point(point) for point in points()], sort_keys=True
    )


def test_digests_are_identical_under_two_hash_seeds_and_spawn():
    expected = [digest(point) for point in points()]
    assert all(expected)
    assert json.loads(in_interpreter(0, DIGESTS)) == expected
    assert json.loads(in_interpreter(4242, DIGESTS)) == expected
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        assert list(pool.map(digest, points())) == expected
