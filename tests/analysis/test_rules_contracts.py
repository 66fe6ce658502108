"""Fixture tests for the contract rules.

The contract tables are AST-extracted from the real definition sites
(events.py / backends.py / protocol.py), so these tests double as a check
that extraction found the actual contracts.
"""

import pytest

from repro.analysis import ContractIndex, lint_source

CORE_PATH = "src/repro/core/fixture.py"
SERVICE_PATH = "src/repro/service/fixture.py"


@pytest.fixture(scope="module")
def contracts():
    return ContractIndex.load()


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestContractExtraction:
    def test_callback_hooks_extracted(self, contracts):
        sigs = contracts.callback_signatures
        assert sigs["on_measurement"] == ["self", "engine", "sample", "measurement"]
        assert sigs["on_search_start"] == ["self", "engine"]
        assert "on_search_end" in sigs

    def test_backend_surface_extracted(self, contracts):
        surface = contracts.backend_methods
        assert surface["evaluate_batch"] == ["self", "placements"]
        assert set(surface) >= {"evaluate_batch", "close", "stats"}

    def test_message_schema_extracted(self, contracts):
        assert set(contracts.message_schema) == {
            "hello", "ping", "resume", "evaluate_batch",
            "stats", "spaces", "shutdown", "migrate_space",
        }
        assert "fingerprint" in contracts.request_fields["hello"]
        assert "batch" in contracts.request_fields["evaluate_batch"]
        assert "results" in contracts.response_fields
        assert {"ticket", "raw", "cached", "replayed"} <= contracts.nested_fields

    def test_dispatch_and_constructors_extracted(self, contracts):
        # every schema op dispatches and has exactly one client constructor
        assert set(contracts.server_dispatch) == set(contracts.message_schema)
        assert set(contracts.server_dispatch.values()) <= contracts.server_methods
        assert contracts.client_constructors == {
            op: 1 for op in contracts.message_schema
        }

    def test_admin_plane_extracted(self, contracts):
        assert set(contracts.admin_schema) == {
            "stats", "join", "leave", "membership", "migrate",
        }
        assert set(contracts.router_dispatch) == set(contracts.admin_schema)
        assert set(contracts.router_dispatch.values()) <= contracts.router_methods
        assert "backend" in contracts.admin_schema["join"]["request"]
        # overlapping "stats" op merges rather than shadows
        combined = contracts.combined_schema
        assert set(contracts.message_schema["stats"]["response"]) <= set(
            combined["stats"]["response"]
        )
        assert "stats" in combined["stats"]["response"]


class TestCallbackSignature:
    def test_drifted_override_flagged(self, contracts):
        src = (
            "from repro.core import SearchCallback\n\n"
            "class C(SearchCallback):\n"
            "    def on_measurement(self, engine, sample):\n"
            "        pass\n"
        )
        assert rule_ids(lint_source(src, CORE_PATH, contracts)) == ["callback-signature"]

    def test_unknown_hook_flagged(self, contracts):
        src = (
            "from repro.core import SearchCallback\n\n"
            "class C(SearchCallback):\n"
            "    def on_measurment(self, engine, sample, measurement):\n"
            "        pass\n"
        )
        assert rule_ids(lint_source(src, CORE_PATH, contracts)) == ["callback-signature"]

    def test_conforming_override_clean(self, contracts):
        src = (
            "from repro.core import SearchCallback\n\n"
            "class C(SearchCallback):\n"
            "    def on_measurement(self, engine, sample, measurement):\n"
            "        pass\n"
            "    def on_search_end(self, engine, result):\n"
            "        pass\n"
        )
        assert lint_source(src, CORE_PATH, contracts) == []

    def test_non_callback_class_ignored(self, contracts):
        src = "class C:\n    def on_anything(self, x):\n        pass\n"
        assert lint_source(src, CORE_PATH, contracts) == []

    def test_pragma_suppresses(self, contracts):
        src = (
            "from repro.core import SearchCallback\n\n"
            "class C(SearchCallback):\n"
            "    # repro: allow[callback-signature] adapter shims the legacy arity on purpose\n"
            "    def on_measurement(self, engine, sample):\n"
            "        pass\n"
        )
        assert lint_source(src, CORE_PATH, contracts) == []


class TestBackendProtocol:
    def test_missing_surface_flagged(self, contracts):
        src = (
            "from repro.sim.backends import EvaluationBackend\n\n"
            "class Bad(EvaluationBackend):\n"
            "    def evaluate_batch(self, placements):\n"
            "        return []\n"
        )
        ids = rule_ids(lint_source(src, CORE_PATH, contracts))
        assert ids == ["backend-protocol", "backend-protocol"]  # close + stats

    def test_structural_claimant_drift_flagged(self, contracts):
        src = (
            "class S:\n"
            "    def evaluate_batch(self, batch):\n"
            "        return []\n"
            "    def close(self):\n"
            "        pass\n"
            "    def stats(self):\n"
            "        return {}\n"
        )
        assert rule_ids(lint_source(src, CORE_PATH, contracts)) == ["backend-protocol"]

    def test_prepare_batch_drift_flagged(self, contracts):
        src = (
            "class S:\n"
            "    def evaluate_batch(self, placements):\n"
            "        return []\n"
            "    def close(self):\n"
            "        pass\n"
            "    def stats(self):\n"
            "        return {}\n"
            "    def prepare_batch(self, placements, eager):\n"
            "        pass\n"
        )
        assert rule_ids(lint_source(src, CORE_PATH, contracts)) == ["backend-protocol"]

    def test_full_surface_clean(self, contracts):
        src = (
            "class S:\n"
            "    def evaluate_batch(self, placements):\n"
            "        return []\n"
            "    def close(self):\n"
            "        pass\n"
            "    def stats(self):\n"
            "        return {}\n"
            "    def prepare_batch(self, placements):\n"
            "        pass\n"
        )
        assert lint_source(src, CORE_PATH, contracts) == []


class TestProtocolSchema:
    def test_unknown_field_flagged(self, contracts):
        src = 'def f(p):\n    return {"op": "evaluate_batch", "placments": p}\n'
        assert rule_ids(lint_source(src, SERVICE_PATH, contracts)) == ["protocol-schema"]

    def test_unknown_op_flagged(self, contracts):
        src = 'def f():\n    return {"op": "frobnicate"}\n'
        assert rule_ids(lint_source(src, SERVICE_PATH, contracts)) == ["protocol-schema"]

    def test_unknown_get_read_flagged(self, contracts):
        src = 'def f(message):\n    return message.get("placment")\n'
        assert rule_ids(lint_source(src, SERVICE_PATH, contracts)) == ["protocol-schema"]

    def test_valid_message_clean(self, contracts):
        src = (
            'def f(p, fp):\n'
            '    hello = {"op": "hello", "version": 1, "fingerprint": fp}\n'
            '    return hello, {"op": "evaluate_batch", "placements": p}\n'
        )
        assert lint_source(src, SERVICE_PATH, contracts) == []

    def test_unknown_result_item_read_flagged(self, contracts):
        src = 'def f(result):\n    return result.get("tiket")\n'
        assert rule_ids(lint_source(src, SERVICE_PATH, contracts)) == ["protocol-schema"]

    def test_result_item_read_clean(self, contracts):
        src = (
            'def f(reply):\n'
            '    for result in reply.get("results"):\n'
            '        yield result.get("ticket"), result.get("raw"), result.get("replayed")\n'
        )
        assert lint_source(src, SERVICE_PATH, contracts) == []

    def test_schema_read_clean(self, contracts):
        src = 'def f(message):\n    return message.get("placements")\n'
        assert lint_source(src, SERVICE_PATH, contracts) == []

    def test_outside_service_ignored(self, contracts):
        # Tests construct deliberately-bad messages to exercise error paths.
        src = 'def f():\n    return {"op": "frobnicate"}\n'
        assert lint_source(src, "tests/service/fixture.py", contracts) == []

    def test_non_message_dict_ignored(self, contracts):
        src = 'def f():\n    return {"makespan": 1.0, "hits": 3}\n'
        assert lint_source(src, SERVICE_PATH, contracts) == []


class TestProtocolDispatch:
    """The cross-file rule: findings are synthesized from doctored contract
    tables and reported against the schema's home module."""

    PROTOCOL_PATH = "src/repro/service/protocol.py"
    #: A stand-in for protocol.py: the rule only needs the MESSAGE_SCHEMA
    #: assignment as its finding anchor — contracts supply the tables.
    HOME_SRC = "MESSAGE_SCHEMA = {}\n"

    @staticmethod
    def _doctor(contracts, **overrides):
        from repro.analysis import ContractIndex

        return ContractIndex(
            contracts.callback_signatures,
            contracts.backend_methods,
            contracts.message_schema,
            contracts.nested_fields,
            server_dispatch=overrides.get(
                "server_dispatch", contracts.server_dispatch
            ),
            server_methods=overrides.get(
                "server_methods", contracts.server_methods
            ),
            client_constructors=overrides.get(
                "client_constructors", contracts.client_constructors
            ),
            admin_schema=overrides.get("admin_schema", {}),
            router_dispatch=overrides.get("router_dispatch", {}),
            router_methods=overrides.get("router_methods", set()),
        )

    def test_repo_protocol_self_lints_clean(self, contracts):
        with open(self.PROTOCOL_PATH) as fh:
            src = fh.read()
        assert lint_source(src, self.PROTOCOL_PATH, contracts) == []

    def test_undispatched_op_flagged(self, contracts):
        dispatch = dict(contracts.server_dispatch)
        dispatch.pop("spaces")
        doctored = self._doctor(contracts, server_dispatch=dispatch)
        findings = lint_source(self.HOME_SRC, self.PROTOCOL_PATH, doctored)
        assert rule_ids(findings) == ["protocol-dispatch"]
        assert "no entry in the server's _OP_HANDLERS" in findings[0].message

    def test_dispatch_to_missing_method_flagged(self, contracts):
        dispatch = dict(contracts.server_dispatch, ping="_op_misspelled")
        doctored = self._doctor(contracts, server_dispatch=dispatch)
        findings = lint_source(self.HOME_SRC, self.PROTOCOL_PATH, doctored)
        assert rule_ids(findings) == ["protocol-dispatch"]
        assert "server.py does not define" in findings[0].message

    def test_missing_client_constructor_flagged(self, contracts):
        constructors = dict(contracts.client_constructors)
        constructors.pop("ping")
        doctored = self._doctor(contracts, client_constructors=constructors)
        findings = lint_source(self.HOME_SRC, self.PROTOCOL_PATH, doctored)
        assert rule_ids(findings) == ["protocol-dispatch"]
        assert "no client request constructor" in findings[0].message

    def test_forked_client_constructor_flagged(self, contracts):
        constructors = dict(contracts.client_constructors, ping=2)
        doctored = self._doctor(contracts, client_constructors=constructors)
        findings = lint_source(self.HOME_SRC, self.PROTOCOL_PATH, doctored)
        assert rule_ids(findings) == ["protocol-dispatch"]
        assert "2 client request constructors" in findings[0].message

    def test_stray_dispatch_op_flagged(self, contracts):
        dispatch = dict(contracts.server_dispatch, frobnicate="_op_frobnicate")
        doctored = self._doctor(contracts, server_dispatch=dispatch)
        findings = lint_source(self.HOME_SRC, self.PROTOCOL_PATH, doctored)
        assert rule_ids(findings) == ["protocol-dispatch"]
        assert "unknown op 'frobnicate'" in findings[0].message

    def test_outside_home_module_ignored(self, contracts):
        dispatch = dict(contracts.server_dispatch)
        dispatch.pop("spaces")
        doctored = self._doctor(contracts, server_dispatch=dispatch)
        assert lint_source(self.HOME_SRC, SERVICE_PATH, doctored) == []

    def test_fixture_trees_without_contract_sources_stay_silent(self, contracts):
        doctored = self._doctor(
            contracts, server_dispatch={}, client_constructors={}
        )
        assert lint_source(self.HOME_SRC, self.PROTOCOL_PATH, doctored) == []

    # ---- the router admin plane: ADMIN_SCHEMA ↔ _ADMIN_HANDLERS ----

    #: Admin findings anchor at the ADMIN_SCHEMA assignment when present.
    ADMIN_HOME_SRC = "MESSAGE_SCHEMA = {}\nADMIN_SCHEMA = {}\n"

    def _admin_doctor(self, contracts, **overrides):
        return self._doctor(
            contracts,
            admin_schema=overrides.get("admin_schema", contracts.admin_schema),
            router_dispatch=overrides.get(
                "router_dispatch", contracts.router_dispatch
            ),
            router_methods=overrides.get(
                "router_methods", contracts.router_methods
            ),
        )

    def test_real_admin_plane_clean(self, contracts):
        doctored = self._admin_doctor(contracts)
        assert lint_source(self.ADMIN_HOME_SRC, self.PROTOCOL_PATH, doctored) == []

    def test_unhandled_admin_op_flagged(self, contracts):
        dispatch = dict(contracts.router_dispatch)
        dispatch.pop("migrate")
        doctored = self._admin_doctor(contracts, router_dispatch=dispatch)
        findings = lint_source(self.ADMIN_HOME_SRC, self.PROTOCOL_PATH, doctored)
        assert rule_ids(findings) == ["protocol-dispatch"]
        assert "no entry in the router's _ADMIN_HANDLERS" in findings[0].message
        # anchored at the ADMIN_SCHEMA assignment, not MESSAGE_SCHEMA's
        assert findings[0].line == 2

    def test_admin_dispatch_to_missing_method_flagged(self, contracts):
        dispatch = dict(contracts.router_dispatch, join="_admin_misspelled")
        doctored = self._admin_doctor(contracts, router_dispatch=dispatch)
        findings = lint_source(self.ADMIN_HOME_SRC, self.PROTOCOL_PATH, doctored)
        assert rule_ids(findings) == ["protocol-dispatch"]
        assert "router.py does not define" in findings[0].message

    def test_stray_admin_dispatch_op_flagged(self, contracts):
        dispatch = dict(contracts.router_dispatch, evict="_admin_evict")
        doctored = self._admin_doctor(contracts, router_dispatch=dispatch)
        findings = lint_source(self.ADMIN_HOME_SRC, self.PROTOCOL_PATH, doctored)
        assert rule_ids(findings) == ["protocol-dispatch"]
        assert "not in ADMIN_SCHEMA" in findings[0].message

    def test_fixture_trees_without_admin_plane_stay_silent(self, contracts):
        doctored = self._admin_doctor(contracts, router_dispatch={})
        assert lint_source(self.ADMIN_HOME_SRC, self.PROTOCOL_PATH, doctored) == []


class TestCallbackHook:
    """Both directions of the dispatch↔hook bijection."""

    #: Stand-in for events.py: the every-hook-fires direction anchors its
    #: findings at the SearchCallback class definition.
    EVENTS_PATH = "src/repro/core/events.py"
    HOME_SRC = "class SearchCallback:\n    pass\n"

    @staticmethod
    def _doctor(contracts, **overrides):
        from repro.analysis import ContractIndex

        return ContractIndex(
            contracts.callback_signatures,
            contracts.backend_methods,
            contracts.message_schema,
            contracts.nested_fields,
            server_dispatch=contracts.server_dispatch,
            server_methods=contracts.server_methods,
            client_constructors=contracts.client_constructors,
            callback_fire_counts=overrides.get(
                "callback_fire_counts", contracts.callback_fire_counts
            ),
            internal_imports=contracts.internal_imports,
        )

    # ---- direction 1: every dispatch site names a hook, at hook arity ----

    def test_unknown_hook_dispatch_flagged(self, contracts):
        src = "def run(cb, engine):\n    cb.on_measurment(engine)\n"
        findings = lint_source(src, CORE_PATH, contracts)
        assert rule_ids(findings) == ["callback-hook"]
        assert "names no SearchCallback hook" in findings[0].message

    def test_arity_mismatch_flagged(self, contracts):
        # on_measurement takes (engine, sample, measurement) after self.
        src = "def run(cb, engine, sample):\n    cb.on_measurement(engine, sample)\n"
        findings = lint_source(src, CORE_PATH, contracts)
        assert rule_ids(findings) == ["callback-hook"]
        assert "passes 2 argument(s) but the hook takes 3" in findings[0].message

    def test_correct_dispatch_clean(self, contracts):
        src = (
            "def run(cb, engine, sample, m):\n"
            "    cb.on_measurement(engine, sample, m)\n"
            "    cb.on_search_start(engine)\n"
        )
        assert lint_source(src, CORE_PATH, contracts) == []

    def test_computed_call_shapes_skip_arity(self, contracts):
        src = (
            "def run(cb, engine, extra):\n"
            "    cb.on_measurement(engine, *extra)\n"
            "    cb.on_search_start(engine=engine)\n"
        )
        assert lint_source(src, CORE_PATH, contracts) == []

    def test_dispatch_in_service_scope_checked(self, contracts):
        src = "def run(cb, engine):\n    cb.on_no_such_hook(engine)\n"
        assert rule_ids(lint_source(src, SERVICE_PATH, contracts)) == ["callback-hook"]

    def test_outside_scope_ignored(self, contracts):
        src = "def run(cb, engine):\n    cb.on_no_such_hook(engine)\n"
        assert lint_source(src, "src/repro/sim/fixture.py", contracts) == []

    def test_pragma_suppresses_dispatch_finding(self, contracts):
        src = (
            "def run(cb, engine):\n"
            "    # repro: allow[callback-hook] legacy shim dispatches a retired hook\n"
            "    cb.on_no_such_hook(engine)\n"
        )
        assert lint_source(src, CORE_PATH, contracts) == []

    # ---- direction 2: every hook has at least one fire site ----

    def test_dead_hook_flagged_at_definition_site(self, contracts):
        fires = dict(contracts.callback_fire_counts)
        dead = sorted(contracts.callback_signatures)[0]
        fires.pop(dead, None)
        doctored = self._doctor(contracts, callback_fire_counts=fires or {"x": 1})
        findings = lint_source(self.HOME_SRC, self.EVENTS_PATH, doctored)
        assert rule_ids(findings) == ["callback-hook"]
        assert f"SearchCallback.{dead} has no dispatch site" in findings[0].message

    def test_all_hooks_fired_clean(self, contracts):
        fires = {name: 1 for name in contracts.callback_signatures}
        doctored = self._doctor(contracts, callback_fire_counts=fires)
        assert lint_source(self.HOME_SRC, self.EVENTS_PATH, doctored) == []

    def test_fixture_trees_without_fire_sites_stay_silent(self, contracts):
        doctored = self._doctor(contracts, callback_fire_counts={})
        assert lint_source(self.HOME_SRC, self.EVENTS_PATH, doctored) == []

    def test_fire_direction_only_reports_from_home_module(self, contracts):
        fires = {name: 0 for name in contracts.callback_signatures}
        doctored = self._doctor(contracts, callback_fire_counts=fires)
        assert lint_source(self.HOME_SRC, CORE_PATH, doctored) == []

    # ---- extraction sanity against the real tree ----

    def test_every_real_hook_has_a_fire_site(self, contracts):
        fired = {h for h, n in contracts.callback_fire_counts.items() if n > 0}
        assert set(contracts.callback_signatures) <= fired

    def test_fire_counts_exclude_events_py_mirror(self, contracts):
        # CallbackList fans every hook out; if events.py were counted the
        # check would be vacuously satisfied even with a dead engine.
        import ast as ast_mod

        tree = ast_mod.parse(open("src/repro/core/events.py").read())
        mirror_calls = sum(
            1
            for node in ast_mod.walk(tree)
            if isinstance(node, ast_mod.Call)
            and isinstance(node.func, ast_mod.Attribute)
            and node.func.attr.startswith("on_")
        )
        assert mirror_calls > 0  # the mirror exists...
        total_counted = sum(contracts.callback_fire_counts.values())
        assert total_counted > 0  # ...and real engine fire sites exist too
