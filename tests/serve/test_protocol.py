"""Protocol tests: request validation, response shaping, canonical
encoding."""

import json

import pytest

from repro.engine.batch import BatchEngine
from repro.engine.job import JobSpec
from repro.graphs import get_graph
from repro.ir.serialize import dfg_to_dict
from repro.serve.protocol import (
    DEFAULT_ALGORITHM,
    DEFAULT_RESOURCES,
    ProtocolError,
    encode_json,
    parse_request,
    response_payload,
    source_of,
)


def _body(**fields) -> bytes:
    return json.dumps(fields).encode("utf-8")


class TestParseRequest:
    def test_registry_name_with_defaults(self):
        request = parse_request(_body(graph="HAL"))
        assert request.spec.graph.source == "registry"
        assert request.spec.graph.name == "HAL"
        assert request.spec.resources == DEFAULT_RESOURCES
        assert request.spec.algorithm == DEFAULT_ALGORITHM
        assert request.artifacts is False
        assert request.gaps is False

    def test_graph_name_case_insensitive(self):
        assert parse_request(_body(graph="hal")).spec.graph.name == "HAL"

    def test_algorithm_alias_resolves(self):
        request = parse_request(_body(graph="HAL", algorithm="meta4"))
        assert request.spec.algorithm == "threaded(meta4)"

    def test_inline_graph_round_trips(self):
        dfg = get_graph("FIR")
        request = parse_request(_body(graph=dfg_to_dict(dfg)))
        assert request.spec.graph.source == "inline"
        rebuilt = request.spec.graph.build()
        assert rebuilt.num_nodes == dfg.num_nodes

    def test_inline_graph_same_cache_key_as_registry(self):
        """An inline copy of a registry graph shares its cache entry."""
        inline = parse_request(_body(graph=dfg_to_dict(get_graph("HAL"))))
        named = parse_request(_body(graph="HAL"))
        engine = BatchEngine()
        inline_key = inline.spec.cache_key(
            engine._graph_hash(inline.spec.graph)
        )
        named_key = named.spec.cache_key(
            engine._graph_hash(named.spec.graph)
        )
        assert inline_key == named_key

    def test_flags_parsed(self):
        request = parse_request(
            _body(graph="HAL", artifacts=True, gaps=True)
        )
        assert request.artifacts is True
        assert request.gaps is True

    @pytest.mark.parametrize(
        "body, fragment",
        [
            (b"not json", "not valid JSON"),
            (b"[1,2]", "must be a JSON object"),
            (_body(), "'graph' is required"),
            (_body(graph="NOSUCH"), "unknown benchmark"),
            (_body(graph=7), "field 'graph'"),
            (_body(graph="HAL", typo=1), "unknown request field"),
            (_body(graph="HAL", resources=5), "'resources'"),
            (_body(graph="HAL", resources="2bogus"), "notation"),
            (_body(graph="HAL", algorithm=[]), "'algorithm'"),
            (_body(graph="HAL", algorithm="meta99"), "unknown algorithm"),
            (_body(graph="HAL", artifacts="yes"), "'artifacts'"),
            (_body(graph="HAL", gaps=1), "'gaps'"),
            (_body(graph={"format": "wrong"}), "bad inline graph"),
            (
                _body(graph={"format": "repro-dfg-v1", "nodes": [{}]}),
                "bad inline graph",
            ),
            (
                _body(graph={"format": "repro-dfg-v1", "nodes": 5}),
                "'nodes' must be a list",
            ),
            (
                _body(graph={"format": "repro-dfg-v1", "edges": "a->b"}),
                "'edges' must be a list",
            ),
            (
                _body(graph={"format": "repro-dfg-v1", "name": ["x"]}),
                "name must be a string",
            ),
            (
                _body(graph={
                    "format": "repro-dfg-v1",
                    "nodes": [{"id": "a", "op": "add", "delay": 1.5}],
                }),
                "delay must be an integer, got 1.5",
            ),
        ],
    )
    def test_bad_requests_raise_protocol_error(self, body, fragment):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(body)
        assert fragment in str(excinfo.value)
        assert excinfo.value.status == 400

    def test_malformed_inline_node_names_the_record(self):
        body = _body(
            graph={
                "format": "repro-dfg-v1",
                "nodes": [{"id": "a", "op": "frobnicate", "delay": 1}],
            }
        )
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(body)
        assert "unknown op kind" in str(excinfo.value)


class TestResponses:
    def _result(self):
        job = JobSpec.make("HAL", "2+/-,2*", "meta2")
        engine = BatchEngine(compute_gaps=True, capture_schedules=True)
        return engine.run([job])[0]

    def test_payload_shaping_by_flags(self):
        result = self._result()
        lean = response_payload(
            result, parse_request(_body(graph="HAL"))
        )
        assert "artifact" not in lean and "gap" not in lean
        assert lean["length"] == 8
        assert lean["format"] == "repro-serve-v1"
        rich = response_payload(
            result,
            parse_request(_body(graph="HAL", artifacts=True, gaps=True)),
        )
        assert rich["artifact"]["length"] == 8
        assert isinstance(rich["gap"], int) and rich["gap"] >= 0

    def test_volatile_fields_never_serialized(self):
        result = self._result()
        payload = response_payload(
            result,
            parse_request(_body(graph="HAL", artifacts=True, gaps=True)),
        )
        assert "runtime_s" not in payload
        assert "cached" not in payload

    def test_encoding_is_canonical(self):
        blob = encode_json({"b": 1, "a": {"d": 2, "c": 3}})
        assert blob == b'{"a":{"c":3,"d":2},"b":1}'

    def test_source_header_values(self):
        result = self._result()
        assert source_of(result, coalesced=True) == "coalesced"
        assert source_of(result, coalesced=False) == "computed"
        import dataclasses

        hit = dataclasses.replace(result, cached=True)
        assert source_of(hit, coalesced=False) == "cache"


class TestWindows:
    """Window pins through the wire protocol: strict 400s, never 500s."""

    def test_valid_windows_reach_the_spec(self):
        request = parse_request(
            _body(
                graph="HAL",
                algorithm="fds",
                windows={"n3": [2, 5], "n1": [0, 4]},
            )
        )
        assert request.spec.windows == (("n1", (0, 4)), ("n3", (2, 5)))

    def test_windows_are_order_insensitive(self):
        a = parse_request(
            _body(
                graph="HAL",
                algorithm="fds",
                windows={"a": [1, 2], "b": [3, 4]},
            )
        )
        b = parse_request(
            _body(
                graph="HAL",
                algorithm="fds",
                windows={"b": [3, 4], "a": [1, 2]},
            )
        )
        assert a.spec == b.spec

    def test_empty_windows_object_is_windowless(self):
        request = parse_request(
            _body(graph="HAL", algorithm="fds", windows={})
        )
        assert request.spec.windows == ()

    @pytest.mark.parametrize(
        "windows",
        [
            "notadict",
            42,
            [["a", [1, 2]]],
            {"a": "nope"},
            {"a": [1]},
            {"a": [1, 2, 3]},
            {"a": None},
            {"a": [1.5, 2]},
            {"a": [True, 2]},
            {"a": [1, False]},
            {"a": [-1, 2]},
            {"a": [5, 2]},
            {"a": {"lo": 1, "hi": 2}},
        ],
        ids=repr,
    )
    def test_malformed_windows_raise_protocol_error(self, windows):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(_body(graph="HAL", algorithm="fds", windows=windows))
        assert excinfo.value.status == 400

    def test_windows_on_unsupported_algorithm_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(
                _body(graph="HAL", algorithm="meta2", windows={"a": [0, 1]})
            )
        assert excinfo.value.status == 400
        assert "window" in str(excinfo.value)

    def test_unknown_op_in_inline_graph_is_400(self):
        dfg = get_graph("FIR")
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(
                _body(
                    graph=dfg_to_dict(dfg),
                    algorithm="fds",
                    windows={"ghost": [0, 1]},
                )
            )
        assert excinfo.value.status == 400
        assert "ghost" in str(excinfo.value)

    def test_unknown_op_on_registry_graph_defers_to_engine(self):
        # The name is not resolved at parse time; the engine reports a
        # structured per-job failure instead (still never a 500).
        request = parse_request(
            _body(graph="HAL", algorithm="fds", windows={"ghost": [0, 1]})
        )
        engine = BatchEngine()
        (result,) = engine.run([request.spec])
        assert not result.ok
        assert "ghost" in result.error

    def test_windowless_spec_equals_pre_window_spec(self):
        # Byte-compat guard: requests without windows must build specs
        # (and therefore cache keys) identical to the historical form.
        plain = parse_request(_body(graph="HAL", algorithm="fds"))
        spec = JobSpec.make("HAL", DEFAULT_RESOURCES, "fds")
        assert plain.spec == spec


class TestScenario:
    """Scenario constraints through the wire protocol: strict 400s,
    never 500s — mirroring the windows matrix above."""

    def test_valid_scenario_reaches_the_spec(self):
        request = parse_request(
            _body(
                graph="HAL",
                scenario={"mode": "reliability", "ops": ["m2", "m1"]},
            )
        )
        assert request.spec.scenario == (
            ("mode", "reliability"),
            ("ops", ("m1", "m2")),
        )

    def test_io_schedule_sugar_equals_io_scenario(self):
        sugar = parse_request(
            _body(graph="HAL", algorithm="fds", io_schedule={"m1": 2})
        )
        explicit = parse_request(
            _body(
                graph="HAL",
                algorithm="fds",
                scenario={"mode": "io", "pins": {"m1": 2}},
            )
        )
        assert sugar.spec == explicit.spec

    def test_scenario_and_io_schedule_together_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(
                _body(
                    graph="HAL",
                    algorithm="fds",
                    scenario={"mode": "io", "pins": {"m1": 2}},
                    io_schedule={"m1": 2},
                )
            )
        assert excinfo.value.status == 400
        assert "mutually exclusive" in str(excinfo.value)

    @pytest.mark.parametrize(
        "scenario",
        [
            "notadict",
            42,
            [],
            {},
            {"mode": 7},
            {"mode": "warp"},
            {"banks": 2, "ports": 1},
            {"mode": "memory"},
            {"mode": "memory", "banks": 2},
            {"mode": "memory", "banks": 0, "ports": 1},
            {"mode": "memory", "banks": True, "ports": 1},
            {"mode": "memory", "banks": 2, "ports": 1, "extra": 1},
            {"mode": "io"},
            {"mode": "io", "pins": {}},
            {"mode": "io", "pins": {"a": -1}},
            {"mode": "io", "pins": {"a": True}},
            {"mode": "io", "pins": {"a": "3"}},
            {"mode": "reliability"},
            {"mode": "reliability", "ops": []},
            {"mode": "reliability", "ops": "m1"},
        ],
        ids=repr,
    )
    def test_malformed_scenarios_raise_protocol_error(self, scenario):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(
                _body(graph="HAL", algorithm="fds", scenario=scenario)
            )
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "io_schedule",
        [
            "notadict",
            42,
            [],
            {},
            {"a": -1},
            {"a": True},
            {"a": "3"},
            {"a": None},
        ],
        ids=repr,
    )
    def test_malformed_io_schedule_raises_protocol_error(self, io_schedule):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(
                _body(graph="HAL", algorithm="fds", io_schedule=io_schedule)
            )
        assert excinfo.value.status == 400

    def test_memory_scenario_on_unsupported_algorithm_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(
                _body(
                    graph="HAL",
                    algorithm="bnb-anytime",
                    scenario={"mode": "memory", "banks": 2, "ports": 1},
                )
            )
        assert excinfo.value.status == 400
        assert "banked" in str(excinfo.value)

    def test_io_scenario_on_unsupported_algorithm_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(
                _body(
                    graph="HAL",
                    algorithm="meta2",
                    scenario={"mode": "io", "pins": {"m1": 2}},
                )
            )
        assert excinfo.value.status == 400

    def test_unknown_pin_op_in_inline_graph_is_400(self):
        dfg = get_graph("FIR")
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(
                _body(
                    graph=dfg_to_dict(dfg),
                    algorithm="fds",
                    scenario={"mode": "io", "pins": {"ghost": 0}},
                )
            )
        assert excinfo.value.status == 400
        assert "ghost" in str(excinfo.value)

    def test_unknown_marked_op_in_inline_graph_is_400(self):
        dfg = get_graph("FIR")
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(
                _body(
                    graph=dfg_to_dict(dfg),
                    scenario={"mode": "reliability", "ops": ["ghost"]},
                )
            )
        assert excinfo.value.status == 400
        assert "ghost" in str(excinfo.value)

    def test_unknown_op_on_registry_graph_defers_to_engine(self):
        request = parse_request(
            _body(
                graph="HAL",
                algorithm="fds",
                scenario={"mode": "io", "pins": {"ghost": 0}},
            )
        )
        (result,) = BatchEngine().run([request.spec])
        assert not result.ok
        assert "ghost" in result.error

    def test_scenario_free_spec_equals_pre_scenario_spec(self):
        # Byte-compat guard: requests without a scenario must build
        # specs (and cache keys) identical to the historical form.
        plain = parse_request(_body(graph="HAL", algorithm="fds"))
        assert plain.spec == JobSpec.make("HAL", DEFAULT_RESOURCES, "fds")

    def test_windows_and_budget_combine_on_bnb_anytime(self):
        # Satellite: both constraint families ride one request.
        request = parse_request(
            _body(
                graph="HAL",
                algorithm="bnb-anytime",
                windows={"m1": [2, 2]},
                budget={"nodes": 50000},
            )
        )
        spec = request.spec
        assert spec.windows == (("m1", (2, 2)),)
        assert spec.budget == (("nodes", 50000),)
        key = spec.cache_key("h")
        assert key != JobSpec.make(
            "HAL", DEFAULT_RESOURCES, "bnb-anytime"
        ).cache_key("h")
        (result,) = BatchEngine(capture_schedules=True).run([spec])
        assert result.error is None
        assert result.artifact["ops"]["m1"]["step"] == 2
