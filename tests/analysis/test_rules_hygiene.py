"""Fixture tests for the hygiene rules."""

import pytest

from repro.analysis import ContractIndex, lint_source
from repro.analysis.rules.hygiene import LAYERS

SIM_PATH = "src/repro/sim/fixture.py"
NN_PATH = "src/repro/nn/fixture.py"
SERVICE_PATH = "src/repro/service/fixture.py"


@pytest.fixture(scope="module")
def contracts():
    return ContractIndex.load()


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestMutableDefault:
    def test_list_default_flagged(self, contracts):
        src = "def f(x=[]):\n    return x\n"
        assert rule_ids(lint_source(src, SIM_PATH, contracts)) == ["mutable-default"]

    def test_dict_and_set_defaults_flagged(self, contracts):
        src = "def f(a={}, b=set()):\n    return a, b\n"
        ids = rule_ids(lint_source(src, SIM_PATH, contracts))
        assert ids == ["mutable-default", "mutable-default"]

    def test_kwonly_default_flagged(self, contracts):
        src = "def f(*, hist=list()):\n    return hist\n"
        assert rule_ids(lint_source(src, SIM_PATH, contracts)) == ["mutable-default"]

    def test_applies_outside_repro_too(self, contracts):
        src = "def f(x=[]):\n    return x\n"
        assert rule_ids(lint_source(src, "tests/fixture.py", contracts)) == ["mutable-default"]

    def test_none_and_tuple_defaults_clean(self, contracts):
        src = "def f(x=None, y=(), z=0):\n    return x, y, z\n"
        assert lint_source(src, SIM_PATH, contracts) == []

    def test_pragma_suppresses(self, contracts):
        src = "def f(x=[]):  # repro: allow[mutable-default] sentinel list is never mutated\n    return x\n"
        assert lint_source(src, SIM_PATH, contracts) == []


class TestLayerImport:
    def test_upward_absolute_import_flagged(self, contracts):
        src = "from repro.service import client\n"
        assert rule_ids(lint_source(src, SIM_PATH, contracts)) == ["layer-import"]

    def test_upward_relative_import_flagged(self, contracts):
        src = "from ..service.client import RemoteBackend\n"
        assert rule_ids(lint_source(src, SIM_PATH, contracts)) == ["layer-import"]

    def test_upward_plain_import_flagged(self, contracts):
        src = "import repro.service.server\n"
        assert rule_ids(lint_source(src, NN_PATH, contracts)) == ["layer-import"]

    def test_downward_import_clean(self, contracts):
        src = "from repro.graph import OpGraph\nfrom ..nn import init\n"
        assert lint_source(src, SIM_PATH, contracts) == []

    def test_same_package_clean(self, contracts):
        src = "from .simulator import Simulator\nfrom . import faults\n"
        assert lint_source(src, SIM_PATH, contracts) == []

    def test_top_layer_imports_anything(self, contracts):
        src = "from repro.service import MeasurementServer\nfrom repro.sim import backends\n"
        assert lint_source(src, "src/repro/cli.py", contracts) == []

    def test_third_party_imports_ignored(self, contracts):
        src = "import numpy as np\nimport json\n"
        assert lint_source(src, NN_PATH, contracts) == []

    def test_pragma_suppresses(self, contracts):
        src = (
            "# repro: allow[layer-import] lazy hook, no import-time dependency\n"
            "from repro.service import client\n"
        )
        assert lint_source(src, SIM_PATH, contracts) == []

    def test_layer_table_is_a_total_order_over_packages(self):
        assert LAYERS["repro.sim"] < LAYERS["repro.service"]
        assert LAYERS["repro.nn"] == 0
        assert max(LAYERS.values()) == LAYERS["repro"]


class TestLayerRankUnused:
    """Findings are synthesized from a doctored import-pair table and
    reported against the module that owns the LAYERS rank table."""

    HOME_PATH = "src/repro/analysis/rules/hygiene.py"
    #: Stand-in for this module: the rule anchors at the LAYERS assignment
    #: but reads ranks from the real table.
    HOME_SRC = "LAYERS = {}\n"

    #: One member package per rank, for building synthetic crossings.
    RANK_MEMBER = {
        0: "repro.nn", 1: "repro.graph", 2: "repro.rl", 3: "repro.sim",
        4: "repro.grouping", 5: "repro.placement", 6: "repro.core",
        7: "repro.service", 8: "repro.bench", 9: "repro",
    }

    @staticmethod
    def _doctor(contracts, internal_imports):
        return ContractIndex(
            contracts.callback_signatures,
            contracts.backend_methods,
            contracts.message_schema,
            contracts.nested_fields,
            server_dispatch=contracts.server_dispatch,
            server_methods=contracts.server_methods,
            client_constructors=contracts.client_constructors,
            callback_fire_counts=contracts.callback_fire_counts,
            internal_imports=internal_imports,
        )

    def _boundary_pairs(self, skip_high=None):
        """One import pair per adjacent rank boundary, optionally omitting
        the pair that exercises the (skip_high-1, skip_high) boundary."""
        ranks = sorted(set(LAYERS.values()))
        pairs = set()
        for low, high in zip(ranks, ranks[1:]):
            if high == skip_high:
                continue
            pairs.add((
                f"{self.RANK_MEMBER[high]}.mod",
                f"{self.RANK_MEMBER[low]}.mod",
            ))
        return pairs

    def test_all_boundaries_exercised_is_clean(self, contracts):
        doctored = self._doctor(contracts, self._boundary_pairs())
        assert lint_source(self.HOME_SRC, self.HOME_PATH, doctored) == []

    def test_one_top_spanning_import_covers_everything(self, contracts):
        # repro.cli (rank 9) importing repro.nn (rank 0) crosses every
        # intermediate boundary at once.
        doctored = self._doctor(contracts, {("repro.cli", "repro.nn")})
        assert lint_source(self.HOME_SRC, self.HOME_PATH, doctored) == []

    def test_unexercised_boundary_flagged(self, contracts):
        doctored = self._doctor(contracts, self._boundary_pairs(skip_high=9))
        findings = lint_source(self.HOME_SRC, self.HOME_PATH, doctored)
        assert rule_ids(findings) == ["layer-rank-unused"]
        assert "between rank 8 (repro.bench) and rank 9 (repro)" in findings[0].message

    def test_mid_table_gap_flagged(self, contracts):
        doctored = self._doctor(contracts, self._boundary_pairs(skip_high=5))
        findings = lint_source(self.HOME_SRC, self.HOME_PATH, doctored)
        assert rule_ids(findings) == ["layer-rank-unused"]
        assert "rank 4 (repro.grouping)" in findings[0].message
        assert "rank 5 (repro.placement)" in findings[0].message

    def test_outside_home_module_ignored(self, contracts):
        doctored = self._doctor(contracts, self._boundary_pairs(skip_high=9))
        assert lint_source(self.HOME_SRC, SIM_PATH, doctored) == []

    def test_empty_import_table_stays_silent(self, contracts):
        # Fixture trees have no extracted imports — no evidence, no claim.
        doctored = self._doctor(contracts, set())
        assert lint_source(self.HOME_SRC, self.HOME_PATH, doctored) == []

    def test_pragma_suppresses(self, contracts):
        doctored = self._doctor(contracts, self._boundary_pairs(skip_high=9))
        src = (
            "# repro: allow[layer-rank-unused] bench layer is being retired next release\n"
            "LAYERS = {}\n"
        )
        assert lint_source(src, self.HOME_PATH, doctored) == []

    def test_real_tree_exercises_every_boundary(self, contracts):
        """The shipped rank table matches the shipped import graph."""
        with open(self.HOME_PATH) as fh:
            src = fh.read()
        findings = [
            f for f in lint_source(src, self.HOME_PATH, contracts)
            if f.rule_id == "layer-rank-unused"
        ]
        assert findings == []
