import pytest

from fuzzydfa import Edge, FlowGraph, LogicFamily, Var, parse_formula, validate
from fuzzydfa._jsonio import FileFormatError, Settings
from fuzzydfa.flowgraph import graph_from_json_dict, load_graph_file


def fig1_graph():
    return FlowGraph(
        transfers={
            "B0": {"Out": parse_formula("0.0")},
            "B1": {"Out": parse_formula("In")},
            "B2": {"Out": parse_formula("0.8 & (!In | !0.7)")},
            "B3": {"Out": parse_formula("In")},
        },
        edges=[
            Edge("B0", "B1", 0.1),
            Edge("B2", "B1", 0.9),
            Edge("B1", "B2", 1.0),
            Edge("B1", "B3", 1.0),
        ],
        start="B0",
        seeds={"B0": {"Out": 0.0}},
    )


def test_fig1_graph_validates():
    report = validate(fig1_graph())
    assert report.ok
    assert report.errors == []


def test_single_seeded_node_is_valid():
    g = FlowGraph(
        transfers={"only": {"Out": parse_formula("0.5")}},
        edges=[],
        start="only",
        seeds={"only": {"Out": 0.5}},
    )
    assert validate(g).ok


def test_weight_sum_violation_is_reported():
    g = fig1_graph()
    g.edges[0] = Edge("B0", "B1", 0.5)
    g.edges[1] = Edge("B2", "B1", 0.6)
    report = validate(g)
    assert not report.ok
    assert any("B1" in e and "1.1" in e for e in report.errors)


def test_dangling_edge_and_missing_seed():
    g = fig1_graph()
    g.edges.append(Edge("B3", "nowhere", 1.0))
    g.seeds = {}
    report = validate(g)
    assert any("dangling" in e for e in report.errors)
    assert any("seed" in e for e in report.errors)


def test_node_whose_only_in_edge_dangles_has_weights_summing_to_0():
    g = fig1_graph()
    g.edges[3] = Edge("nowhere", "B3", 1.0)
    report = validate(g)
    assert "incoming weights of 'B3' sum to 0, expected 1" in report.errors


def test_unreachable_node_is_a_warning_only():
    g = fig1_graph()
    g.transfers["island"] = {"Out": parse_formula("In")}
    g.edges.append(Edge("B3", "island", 1.0))
    g.edges.append(Edge("island", "island", 0.0))
    # island collects from B3 (weight 1.0) and itself (weight 0.0)
    report = validate(g)
    assert report.ok or not report.errors


def test_unresolvable_variable_is_an_error():
    g = fig1_graph()
    g.transfers["B3"] = {"Out": Var("Mystery")}
    report = validate(g)
    assert any("Mystery" in e for e in report.errors)


def test_json_round_trip(data_dir):
    """The bundled file loads to the in-memory graph and its settings."""
    g, settings = load_graph_file(str(data_dir / "fig1.json"))
    assert g == fig1_graph()
    assert settings == Settings("scalar", LogicFamily.minmax())


def test_unknown_keys_rejected():
    with pytest.raises(FileFormatError) as err:
        graph_from_json_dict({"start": "a", "nodes": [], "edges": [], "bogus": 1})
    assert "bogus" in str(err.value)


def test_reserved_property_name_rejected():
    data = {
        "start": "a",
        "nodes": [{"id": "a", "transfer": {"In": "0.5"}}],
        "edges": [],
        "seed": {"a": {"In": 0.5}},
    }
    with pytest.raises(FileFormatError) as err:
        graph_from_json_dict(data)
    assert "reserved" in str(err.value)


def test_formula_errors_carry_position():
    data = {
        "start": "a",
        "nodes": [{"id": "a", "transfer": {"Out": "0.5 & & 1"}}],
        "edges": [],
    }
    with pytest.raises(FileFormatError) as err:
        graph_from_json_dict(data)
    assert "1:7" in str(err.value)
