import hashlib
import json
from importlib import resources

import jsonschema
import pytest

from dilations.cli import main
from dilations.graphs import parse_graph6, to_edge_list, to_graph6, cycle


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    text = resources.files("dilations").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def validate_envelope(doc):
    jsonschema.validate(doc, load_schema("cli_envelope.schema.json"))


class TestBasicCommands:
    def test_invariant_family(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "--param", "tau",
                               "--family", "cp_vee_cq:4,3", "--no-timestamp")
        assert code == 0
        assert "tau = 3" in out

    def test_invariant_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "--param", "gamma",
                               "--family", "star:5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        validate_envelope(doc)
        jsonschema.validate(doc["result"], load_schema("certificate.schema.json"))
        assert doc["result"]["value"] == 1

    def test_invariant_deep_nu_search(self, capsys, tmp_path):
        # the 1,002-vertex path with its odd edges first: the search drops each
        # of the greedy's 500 edges in turn, on a path 1,000 nodes deep
        edges = [(i, i + 1) for i in range(1, 1001, 2)] + [(i, i + 1) for i in range(0, 1001, 2)]
        hyper = tmp_path / "path.txt"
        hyper.write_text("m 1002\n" + "".join(f"{u} {v}\n" for u, v in edges))
        code, out, _ = run_cli(capsys, "invariant", "--hypergraph", str(hyper),
                               "--param", "nu", "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["value"] == 501

    def test_invariant_witness_within_node_cap(self, capsys, tmp_path):
        # a seeded G(50, 0.1): gamma 10 takes 13,342 value nodes and 12,915
        # witness nodes, so the whole solve fits the cap
        import random
        rng = random.Random(7)
        edges = [(u, v) for u in range(50) for v in range(u + 1, 50) if rng.random() < 0.1]
        graph = tmp_path / "g50.el"
        graph.write_text("n 50\n" + "".join(f"{u} {v}\n" for u, v in edges))
        code, out, _ = run_cli(capsys, "invariant", "--param", "gamma", "--graph", str(graph),
                               "--node-cap", "50000", "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["witness"] == [0, 3, 5, 8, 14, 18, 23, 26, 32, 40]

    def test_gen_and_reparse(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "cycle:6", "--no-timestamp")
        assert code == 0
        payload = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert parse_graph6(payload[0]) == cycle(6)

    def test_gen_json(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "g_nr:3,1",
                               "--format", "json")
        doc = json.loads(out)
        validate_envelope(doc)
        assert doc["result"]["n"] == 7

    def test_power_json(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--family", "cycle:5",
                               "--k", "4", "--s", "2", "--format", "json")
        doc = json.loads(out)
        validate_envelope(doc)
        assert doc["result"]["class"] == "gamma0"
        assert doc["result"]["hypergraph"]["m"] == 10
        assert all(doc["result"]["property_checks"].values())
        jsonschema.validate(doc["result"]["witness"], load_schema("witnesses.schema.json"))

    def test_dilate_text(self, capsys):
        code, out, _ = run_cli(capsys, "dilate", "--family", "cycle:3",
                               "--k", "3", "--s-uniform", "1",
                               "--a-uniform", "1", "--no-timestamp")
        assert code == 0
        assert "m 6" in out

    def test_keg(self, capsys):
        code, out, _ = run_cli(capsys, "keg", "--family", "cp_vee_cq:3,3",
                               "--no-timestamp")
        assert code == 0
        assert "keg = false" in out and "tau = 3" in out

    def test_classify_families(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--family", "cycle:4",
                               "--format", "json")
        doc = json.loads(out)
        validate_envelope(doc)
        assert doc["result"]["g2b"]["member"] is True
        assert doc["result"]["extremal_gamma1"]["kind"] == "equal"

    def test_classify_dilation(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--family", "cycle:3",
                               "--what", "dilation", "--k", "4",
                               "--s-uniform", "1", "--a", "1,0,0",
                               "--no-timestamp")
        assert code == 0
        assert "class = mixed" in out

    def test_enumerate(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--no-timestamp")
        payload = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        assert code == 0 and len(payload) == 6

    def test_derive_nb_json(self, capsys):
        code, out, _ = run_cli(capsys, "derive-nb", "--max-n", "5",
                               "--format", "json")
        doc = json.loads(out)
        validate_envelope(doc)
        assert doc["result"]["count"] == 4


class TestEnvelopeSchema:
    @pytest.mark.parametrize("argv", [
        ("gen", "--family", "cycle:4"),
        ("dilate", "--family", "cycle:3", "--k", "4", "--s-uniform", "1",
         "--a-uniform", "1"),
        ("power", "--family", "cycle:4", "--k", "4", "--s", "1"),
        ("invariant", "--param", "nu", "--family", "cycle:5"),
        ("invariant", "--param", "nu", "--hypergraph", "fano"),
        ("keg", "--family", "cycle:4"),
        ("classify", "--family", "cycle:4"),
        ("classify", "--family", "cycle:3", "--what", "dilation", "--k", "4",
         "--s-uniform", "1", "--a-uniform", "1"),
        ("berge", "search", "--family", "cycle:7", "--hypergraph", "fano"),
        ("enumerate", "--n", "4"),
        ("derive-nb", "--max-n", "4"),
        ("verify", "counterexample", "--max-n", "2"),
    ])
    def test_every_json_output_validates(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        validate_envelope(json.loads(out))


class TestBerge:
    def test_search_fano(self, capsys):
        code, out, _ = run_cli(capsys, "berge", "search", "--family", "cycle:7",
                               "--hypergraph", "fano", "--format", "json")
        doc = json.loads(out)
        validate_envelope(doc)
        assert code == 0 and doc["result"]["found"] is True

    def test_search_fano_with_graph_file(self, capsys, tmp_path):
        gfile = tmp_path / "g.el"
        gfile.write_text(to_edge_list(cycle(7)))
        code, out, _ = run_cli(capsys, "berge", "search", "--graph", str(gfile),
                               "--hypergraph", "fano", "--no-timestamp")
        assert code == 0 and "witness found" in out

    def test_search_not_berge(self, capsys, tmp_path):
        hyper = tmp_path / "h.txt"
        hyper.write_text("m 9\n0 1 2\n3 4 5\n6 7 8\n")
        code, out, _ = run_cli(capsys, "berge", "search", "--family",
                               "cycle:3", "--hypergraph", str(hyper),
                               "--no-timestamp")
        assert code == 0 and "NotBerge" in out

    def test_verify_witness_file(self, capsys, tmp_path):
        from dilations.berge import search_berge_witness
        from dilations.hypergraphs import builtin_hypergraph
        w = search_berge_witness(cycle(7), builtin_hypergraph("fano"))
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(w.to_json()))
        code, out, _ = run_cli(capsys, "berge", "verify", "--family", "cycle:7",
                               "--hypergraph", "fano", "--witness", str(wfile),
                               "--no-timestamp")
        assert code == 0 and "valid = true" in out

    @pytest.mark.parametrize("witness, message", [
        ({"injection": [0, 1, 2]}, "witness 'edge_map' must be a list of integers"),
        ({"injection": "abc", "edge_map": [0, 1, 2]},
         "witness 'injection' must be a list of integers"),
        ([[0, 1, 2], [0, 1, 2]], "witness must be a JSON object"),
    ], ids=["missing_key", "wrong_type", "top_level_array"])
    def test_verify_malformed_witness_is_usage_error(self, capsys, tmp_path, witness, message):
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(witness))
        code, out, err = run_cli(capsys, "berge", "verify", "--family", "cycle:7",
                                 "--hypergraph", "fano", "--witness", str(wfile))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestGraphFiles:
    def test_edge_list_file(self, capsys, tmp_path):
        path = tmp_path / "g.el"
        path.write_text(to_edge_list(cycle(5)))
        code, out, _ = run_cli(capsys, "invariant", "--param", "nu",
                               "--graph", str(path), "--no-timestamp")
        assert code == 0 and "nu = 2" in out

    def test_graph6_file(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(to_graph6(cycle(5)) + "\n")
        code, out, _ = run_cli(capsys, "invariant", "--param", "tau",
                               "--graph", str(path), "--no-timestamp")
        assert code == 0 and "tau = 3" in out

    # g_nr:3,1 in both encodings; the config echo carries the relative path
    G_NR_3_1_EDGES = "n 7\n0 1\n0 2\n0 3\n0 4\n1 2\n3 4\n3 5\n4 6\n"
    G_NR_3_1_GRAPH6 = "F{cOO\n"

    @pytest.mark.parametrize("argv, file_text, expected", [
        (["--family", "g_nr:3,1", "--encoding", "edge_list"], None,
         '# dilations gen | config: {"encoding": "edge_list", "family": "g_nr:3,1", '
         '"graph": null}\n' + G_NR_3_1_EDGES),
        (["--graph", "g", "--graph-format", "graph6", "--encoding", "edge_list"],
         G_NR_3_1_GRAPH6,
         '# dilations gen | config: {"encoding": "edge_list", "family": null, '
         '"graph": "g"}\n' + G_NR_3_1_EDGES),
        (["--graph", "g", "--graph-format", "edge_list"], G_NR_3_1_EDGES,
         '# dilations gen | config: {"encoding": "graph6", "family": null, '
         '"graph": "g"}\n' + G_NR_3_1_GRAPH6),
    ], ids=["family_to_edge_list", "graph6_file_to_edge_list", "edge_list_file_to_graph6"])
    def test_gen_bytes_pinned(self, capsys, tmp_path, monkeypatch, argv, file_text, expected):
        monkeypatch.chdir(tmp_path)
        if file_text is not None:
            (tmp_path / "g").write_text(file_text)
        assert run_cli(capsys, "gen", *argv, "--no-timestamp") == (0, expected, "")

    def test_out_flag(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, "invariant", "--param", "tau",
                               "--family", "cycle:5", "--no-timestamp",
                               "--out", str(target))
        assert code == 0 and out == ""
        assert "tau = 3" in target.read_text()


class TestVerifyCommand:
    def test_hereditary_csv(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "hereditary", "--max-n", "4",
                               "--seed", "7", "--format", "csv", "--no-timestamp")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        assert lines[0] == "suite,instance,status,check,expected,got"
        assert all(",pass," in ln for ln in lines[1:])

    def test_verify_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "counterexample", "--max-n", "3",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        validate_envelope(doc)
        schema = load_schema("verification_report.schema.json")
        for report in doc["result"]["reports"]:
            jsonschema.validate(report, schema)

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "nonextremal", "--max-n", "3",
                             "--format", "json")
        _, out2, _ = run_cli(capsys, "verify", "nonextremal", "--max-n", "3",
                             "--format", "json")
        assert out1 == out2

    def test_verify_all_bytes_pinned(self, capsys):
        # the byte-exact contract: every solver change must keep values,
        # witnesses and report order, so the JSON report is pinned whole
        code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "5", "--jobs", "1",
                               "--format", "json", "--no-timestamp")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c1b7c29768b1f021f5fbebf186e478951b199a2ae5c0993761c754b698225fc2")

    def test_no_timestamp_text_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "counterexample", "--max-n", "2",
                             "--no-timestamp")
        _, out2, _ = run_cli(capsys, "verify", "counterexample", "--max-n", "2",
                             "--no-timestamp")
        assert out1 == out2


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        assert run_cli(capsys, "invariant", "--wat")[0] == 2

    def test_usage_error_missing_inputs(self, capsys):
        code, _, err = run_cli(capsys, "dilate", "--family", "cycle:3", "--k", "3")
        assert code == 2 and "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "invariant", "--param", "tau",
                               "--graph", "/nonexistent/g.el")
        assert code == 2

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = run_cli(capsys, "gen", "--family", "cycle:3", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 2] No such file or directory")

    def test_timeout_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "invariant", "--param", "tau",
                               "--family", "complete_minus_clique:4,2",
                               "--node-cap", "3")
        assert code == 3 and "timeout" in err
        # n minus the degree-order greedy independent set
        assert "(nodes: 4, best bound: 6)" in err

    @pytest.mark.parametrize("suite", ["hereditary", "extremal-gamma1",
                                       "extremal-gamma0", "nonextremal", "all"])
    @pytest.mark.parametrize("max_n", ["0", "1"])
    def test_verify_scale_below_two_is_usage_error(self, capsys, suite, max_n):
        code, out, err = run_cli(capsys, "verify", suite, "--max-n", max_n)
        assert code == 2 and "2 <=" in err and "PASS" not in out

    @pytest.mark.parametrize("max_n", ["-1", "0", "1"])
    def test_verify_all_scale_below_two_is_one_message(self, capsys, max_n):
        # not the first suite's own range, which names a suite and a top bound
        code, out, err = run_cli(capsys, "verify", "all", "--max-n", max_n)
        assert (code, out, err) == (2, "", "error: every suite needs 2 <= max_n\n")

    @pytest.mark.parametrize("argv", [
        ("invariant", "--param", "nu", "--family", "cycle:5", "--node-cap", "-1"),
        ("invariant", "--param", "nu", "--family", "cycle:5", "--node-cap", "0"),
        ("verify", "counterexample", "--max-n", "2", "--samples", "-1"),
        ("verify", "counterexample", "--max-n", "2", "--jobs", "-4"),
        ("verify", "counterexample", "--max-n", "2", "--jobs", "0"),
        ("enumerate", "--n", "4", "--min-degree", "-3"),
    ])
    def test_bad_count_argument_is_usage_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "timeout" not in err

    @pytest.mark.parametrize("argv", [
        ("gen", "--family", "cycle:5,"),
        ("gen", "--family", "cycle:,5"),
        ("gen", "--family", "complete_bipartite:2,,3"),
        ("gen", "--family", "t1:"),
        ("dilate", "--family", "cycle:3", "--k", "3", "--s", "1,,1,1", "--a-uniform", "1"),
    ])
    def test_empty_list_entry_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ")

    @pytest.mark.parametrize("option, value, message", [
        ("--s", "1,x,1", "--s: entry 2 of '1,x,1' is not an integer: 'x'"),
        ("--s", "1,,1", "--s: entry 2 of '1,,1' is empty"),
        ("--s", "", "--s: entry 1 of '' is empty"),
        ("--a", "1,2,", "--a: entry 3 of '1,2,' is empty"),
        ("--a", "1.5,1,1", "--a: entry 1 of '1.5,1,1' is not an integer: '1.5'"),
    ])
    def test_bad_block_size_entry_names_option_and_entry(self, capsys, option, value,
                                                         message):
        uniform = "--a-uniform" if option == "--s" else "--s-uniform"
        code, out, err = run_cli(capsys, "dilate", "--family", "cycle:3", "--k", "3",
                                 option, value, uniform, "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("max_n", ["2", "-2"])
    def test_derive_nb_scale_below_three_is_usage_error(self, capsys, max_n):
        code, out, err = run_cli(capsys, "derive-nb", "--max-n", max_n)
        assert code == 2 and "max_n >= 3" in err and out == ""

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2
