"""The scenario-kind seam: one registration per kind, nothing else to edit.

* a kind registered inside the test (the README's worked example, executed
  verbatim) sweeps through ``grid()`` -> ``CampaignRunner`` (serial and
  pooled) -> ``ResultStore`` -> ``WorkQueue`` / ``QueueWorker`` -> the CLI;
* committed tables pin one cache key per built-in kind
  (``data/kind_keys.json``) and the ``execute_point`` records of one small
  point per kind x stack (``data/kind_records.json``, captured on the tree
  *before* the registry refactor, commit b429ae4, with the partition / gray
  params under their former ``crash_time`` / ``fault_duration`` /
  ``crashed_process`` spellings);
* structural checks keep the kind ladder from growing back.

Regenerate ``kind_keys.json`` only for an intended key change (a new
``SCHEMA_VERSION`` or package version): ``PointSpec.from_dict(point).key()``
for every entry.  ``kind_records.json`` changes only when a simulation
result is meant to change.
"""

import ast
import inspect
import json
import multiprocessing
import os
import re
import sys
import types

import pytest

import repro.campaigns.__main__ as campaigns_cli
from repro.campaigns import runner as runner_module
from repro.campaigns.queue import QueueWorker, WorkQueue
from repro.campaigns.runner import CampaignRunner, execute_point
from repro.campaigns.spec import PointSpec, grid
from repro.campaigns.store import ResultStore
from repro.scenarios import registry
from repro.scenarios.registry import available_kinds, get_kind, kind_shorthands

HERE = os.path.dirname(__file__)
ROOT = os.path.dirname(os.path.dirname(HERE))
CAMPAIGNS_SRC = os.path.join(ROOT, "src", "repro", "campaigns")
SCENARIOS_SRC = os.path.join(ROOT, "src", "repro", "scenarios")

BUILTIN_KINDS = (
    "normal-steady",
    "crash-steady",
    "suspicion-steady",
    "crash-transient",
    "correlated-crash",
    "churn-steady",
    "asymmetric-qos",
    "view-majority-loss",
    "service-load",
    "partition-transient",
    "wan-steady",
    "gray-degradation",
)


def load(name):
    with open(os.path.join(HERE, "data", name), encoding="utf-8") as handle:
        return json.load(handle)


KEY_TABLE = load("kind_keys.json")
RECORD_TABLE = load("kind_records.json")


def readme_section(title):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    start = text.index(title)
    return text[start : text.index("\n## ", start) if "\n## " in text[start:] else len(text)]


@pytest.fixture
def hot_sender():
    """Register the README's worked example, exactly as printed there."""
    section = readme_section("### Adding a scenario kind")
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    # A real module, so the params class pickles by reference into workers.
    module = types.ModuleType("readme_hot_sender")
    sys.modules[module.__name__] = module
    try:
        exec(compile(code, "README.md", "exec"), module.__dict__)
        yield module
    finally:
        registry.unregister_kind("hot-sender")
        del sys.modules[module.__name__]


class TestBuiltinTable:
    def test_the_twelve_kinds_are_registered_in_catalog_order(self):
        assert available_kinds() == BUILTIN_KINDS

    def test_every_kind_is_fully_declared(self):
        for name in available_kinds():
            kind = get_kind(name)
            assert kind.summary and kind.shorthand
            defaults = kind.params()  # every param has a default
            for axis in kind.axes:
                assert axis.help, (name, axis.name)
                if kind.expand is None:
                    assert hasattr(defaults, axis.name), (name, axis.name)
            # 0-6 own settable values on top of the 15 core ones.
            assert len(kind.param_names) <= 6
        assert len(registry.CORE_FIELDS) == 15

    def test_core_fields_are_the_point_specs_fields(self):
        import dataclasses

        fields = tuple(field.name for field in dataclasses.fields(PointSpec))
        assert fields == registry.CORE_FIELDS + ("params",)

    def test_registration_rejects_collisions_and_core_shadowing(self):
        import dataclasses

        normal = get_kind("normal-steady")
        with pytest.raises(ValueError, match="already registered"):
            registry.register_kind(normal)
        with pytest.raises(ValueError, match="collides"):
            registry.register_kind(dataclasses.replace(normal, name="other", shorthand="churn"))

        @dataclasses.dataclass(frozen=True)
        class Shadowing:
            seed: int = 0

        with pytest.raises(ValueError, match="shadow the common core"):
            dataclasses.replace(normal, name="other", shorthand="o", params=Shadowing)
        assert available_kinds() == BUILTIN_KINDS

    def test_unknown_kind_names_the_registered_ones(self):
        with pytest.raises(ValueError, match="unknown scenario kind 'churn'"):
            get_kind("churn")  # shorthands are a CLI spelling, not a kind name


class TestKeyTable:
    def test_one_entry_per_builtin_kind(self):
        assert sorted(entry["point"]["kind"] for entry in KEY_TABLE) == sorted(BUILTIN_KINDS)

    @pytest.mark.parametrize("entry", KEY_TABLE, ids=lambda entry: entry["point"]["kind"])
    def test_keys_do_not_change_silently(self, entry):
        assert PointSpec.from_dict(entry["point"]).key() == entry["key"]

    @pytest.mark.parametrize(
        "entry", KEY_TABLE + RECORD_TABLE, ids=lambda entry: entry["point"]["kind"]
    )
    def test_round_trip_preserves_point_and_key(self, entry):
        point = PointSpec.from_dict(entry["point"])
        through_json = json.loads(json.dumps(point.as_dict()))
        clone = PointSpec.from_dict(through_json)
        assert clone == point
        assert clone.key() == point.key()
        assert clone.as_dict() == point.as_dict()

    @pytest.mark.parametrize("entry", KEY_TABLE, ids=lambda entry: entry["point"]["kind"])
    def test_foreign_keywords_are_rejected(self, entry):
        kind = entry["point"]["kind"]
        foreign = {
            name
            for other in available_kinds()
            for name in get_kind(other).param_names
        } - set(get_kind(kind).param_names)
        for name in sorted(foreign) + ["algorithm", "not_a_field"]:
            with pytest.raises(ValueError, match=f"{kind} points take no"):
                PointSpec.from_dict({**entry["point"], name: 1})


class TestRecordGoldens:
    @pytest.mark.parametrize(
        "entry",
        RECORD_TABLE,
        ids=lambda entry: f"{entry['point']['kind']}/{entry['point']['stack']}",
    )
    def test_records_are_byte_identical_to_the_pre_registry_tree(self, entry):
        record = execute_point(PointSpec.from_dict(entry["point"]))
        assert json.dumps(record, sort_keys=True) == json.dumps(entry["record"], sort_keys=True)

    def test_every_kind_is_covered_on_both_algorithms(self):
        covered = {(entry["point"]["kind"], entry["point"]["stack"]) for entry in RECORD_TABLE}
        for kind in BUILTIN_KINDS:
            stacks = {stack for covered_kind, stack in covered if covered_kind == kind}
            assert stacks & {"gm", "gm-reform"}, kind
            assert "fd" in stacks or kind == "view-majority-loss", kind


class TestTestLocalKind:
    """A kind registered here, with no edit anywhere else."""

    def campaign(self, **axes):
        return grid(
            "hot-sender", stacks=("fd", "gm"), throughputs=(50.0, 100.0),
            seeds=(1, 2), num_messages=12, **axes,
        )

    def test_registering_leaves_every_builtin_key_alone(self, hot_sender):
        assert available_kinds() == BUILTIN_KINDS + ("hot-sender",)
        for entry in KEY_TABLE:
            assert PointSpec.from_dict(entry["point"]).key() == entry["key"]

    def test_points_validate_label_and_round_trip(self, hot_sender):
        point = PointSpec("hot-sender", stack="gm", hot_pid=2, burst=8)
        assert (point.hot_pid, point.burst) == (2, 8)
        assert "hot=p2 x8" in point.label()
        assert PointSpec.from_dict(json.loads(json.dumps(point.as_dict()))) == point
        with pytest.raises(ValueError, match="hot_pid 3 out of range"):
            PointSpec("hot-sender", hot_pid=3)
        with pytest.raises(ValueError, match="hot-sender points take no"):
            PointSpec("hot-sender", crashed=(1,))
        with pytest.raises(ValueError, match="hot-sender has no axis"):
            grid("hot-sender", churn_rate=1.0)

    def test_sweeps_through_runner_store_pool_and_queue(self, hot_sender, tmp_path):
        campaign = self.campaign(burst=6)
        points = campaign.points()
        assert len(points) == 8 and all(point.burst == 6 for point in points)

        store = ResultStore(str(tmp_path / "cache"))
        serial = CampaignRunner(jobs=1, store=store).run(campaign)
        assert (serial.executed, serial.cache_hits) == (8, 0)
        record = serial.record(points[0])
        assert record["scenario"] == "hot-sender"
        assert record["params"]["burst"] == 6 and len(record["latencies"]) == 12
        store.close()

        # A reopened store answers the rebuilt grid from the cache.
        reopened = ResultStore(str(tmp_path / "cache"))
        warm = CampaignRunner(jobs=1, store=reopened).run(self.campaign(burst=6))
        assert (warm.executed, warm.cache_hits) == (0, 8)
        assert warm.records == serial.records
        assert reopened.point(points[0].key())["burst"] == 6
        reopened.close()

        # Pool workers see a kind registered after import only when they are
        # forked from this process (the table is inherited, not re-imported).
        if multiprocessing.get_start_method() == "fork":
            with CampaignRunner(jobs=2) as pooled_runner:
                pooled = pooled_runner.run(self.campaign(burst=6))
            assert pooled.records == serial.records

        queue = WorkQueue(str(tmp_path / "queue"))
        queue.enqueue(points[:3])
        assert QueueWorker(queue, worker_id="seam").run() == 3
        for point in points[:3]:
            assert queue.result(point.key()) == serial.records[point.key()]

    def test_force_kinds_and_cli_accept_the_new_kind(self, hot_sender, tmp_path, capsys):
        CampaignRunner(force_kinds=("hot-sender",))
        argv = [
            "--scenario", "hot", "--burst", "6", "--stack", "fd", "--throughputs", "50",
            "--messages", "12", "--cache-dir", str(tmp_path), "--force-kind", "hot-sender",
        ]
        assert campaigns_cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "(1 simulated, 0 from cache)" in out and "hot-sender" in out
        with pytest.raises(SystemExit):
            campaigns_cli.main(["--scenario", "normal", "--burst", "6"])
        assert "--burst is not an axis of normal-steady" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            campaigns_cli.main(["--scenario", "hot", "--help"])
        help_text = capsys.readouterr().out
        assert "hot-sender (hot): steady state with one process sending" in help_text
        assert "its send rate, in shares" in help_text

    def test_unregistering_removes_the_kind_everywhere(self, hot_sender, capsys):
        registry.unregister_kind("hot-sender")
        assert available_kinds() == BUILTIN_KINDS
        with pytest.raises(ValueError, match="unknown scenario kind"):
            PointSpec("hot-sender")
        with pytest.raises(ValueError, match="unknown force_kinds"):
            CampaignRunner(force_kinds=("hot-sender",))
        with pytest.raises(SystemExit):
            campaigns_cli.main(["--scenario", "hot"])
        assert "invalid choice: 'hot'" in capsys.readouterr().err


def code_strings(path):
    """String constants of a module, docstrings excluded."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
    ]


def code_imports(source):
    """Dotted names of every module a source imports (at any depth)."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    return {
        ".".join(module.split(".")[:depth])
        for module in modules
        for depth in range(1, module.count(".") + 2)
    }


class TestStructure:
    """The kind ladder must not grow back."""

    def campaign_sources(self):
        for name in sorted(os.listdir(CAMPAIGNS_SRC)):
            if name.endswith(".py"):
                path = os.path.join(CAMPAIGNS_SRC, name)
                with open(path, encoding="utf-8") as handle:
                    yield path, handle.read()

    def test_no_kind_tests_under_campaigns(self):
        offenders = [
            f"{os.path.basename(path)}:{number}: {line.strip()}"
            for path, source in self.campaign_sources()
            for number, line in enumerate(source.splitlines(), 1)
            if re.search(r"kind ==|kind in \(", line)
        ]
        assert offenders == []

    def test_campaign_code_names_no_kind_and_no_kind_flag(self):
        flags = {
            axis.flag
            for name in BUILTIN_KINDS
            for axis in get_kind(name).axes
            if axis.flag
        }
        names = set(BUILTIN_KINDS) | set(kind_shorthands())
        for path, _source in self.campaign_sources():
            strings = set(code_strings(path))
            assert not strings & flags, path
            # The modules that held the ladder, the flat fields and the flag
            # wall spell out one kind only: the CLI's default scenario.
            if os.path.basename(path) in ("spec.py", "runner.py", "__main__.py"):
                assert strings & names <= {"normal-steady"}, path

    def test_execute_point_is_a_lookup_plus_one_call(self):
        source = inspect.getsource(runner_module.execute_point)
        assert source.count("point.kind") == 1
        assert "get_kind(point.kind).run(" in source
        assert "elif" not in source

    def test_the_registry_is_a_seam_and_each_builtin_is_one_block(self):
        registry_path = os.path.join(SCENARIOS_SRC, "registry.py")
        names = set(BUILTIN_KINDS) | set(kind_shorthands())
        assert not set(code_strings(registry_path)) & names
        with open(registry_path, encoding="utf-8") as handle:
            assert not re.search(r"^(from|import) .*\brun_", handle.read(), re.MULTILINE)
        # The scenario layer sits below the campaign layer; only the
        # crash-transient sweep helper reaches up (lazily) to declare points.
        for name in sorted(os.listdir(SCENARIOS_SRC)):
            if name.endswith(".py") and name != "transient.py":
                with open(os.path.join(SCENARIOS_SRC, name), encoding="utf-8") as handle:
                    assert "repro.campaigns" not in code_imports(handle.read()), name
        for name in BUILTIN_KINDS:
            kind = get_kind(name)
            home = kind.params.__module__
            assert home == "repro.scenarios.kinds", name
            assert kind.run.__module__ == home, name
            if name != "normal-steady":  # which accepts every point
                assert kind.validate.__module__ == home, name

    def test_spec_module_stays_small(self):
        with open(os.path.join(CAMPAIGNS_SRC, "spec.py"), encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) <= 400


class TestDocsDrift:
    def registry_pairs(self):
        return [(name, get_kind(name).shorthand) for name in available_kinds()]

    def test_readme_catalog_states_the_kinds_once(self):
        section = readme_section("## Scenario catalog")
        rows = re.findall(r"^\| `([a-z-]+)` \(`([a-z-]+)`\) \|", section, re.MULTILINE)
        assert rows == self.registry_pairs()

    def test_cli_docstring_states_the_kinds_once(self):
        pairs = re.findall(r"``([a-z-]+)``\s+\(``([a-z-]+)``\)", campaigns_cli.__doc__)
        assert pairs == self.registry_pairs()

    def test_cli_docstring_only_mentions_real_options(self):
        parser_options = set()
        for name in available_kinds():
            parser = campaigns_cli.build_parser(get_kind(name))
            parser_options.update(parser._option_string_actions)
        mentioned = set(re.findall(r"(?<![\w-])--[a-z][a-z-]+", campaigns_cli.__doc__))
        assert mentioned <= parser_options, sorted(mentioned - parser_options)
