import importlib.util
import json
from pathlib import Path

from invgraph import cli, graph_engine, subgroup_membership
from invgraph.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_table1_csv(capsys, cache_dir):
    code, out = run(capsys, "table1", "--format", "csv", "--cache-dir", cache_dir)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,sym,alt"
    assert len(lines) == 9
    assert "6,null graph,2" in lines


def test_xi_reports_diameter(capsys, cache_dir):
    code, out = run(capsys, "xi", "--n", "12", "--group", "sym", "--cache-dir", cache_dir)
    assert code == 0 and "diameter 5" in out


def test_xi_json_computes_the_diameter_once(capsys, monkeypatch, cache_dir):
    calls = []

    def counted(original):
        def wrapper(g):
            calls.append(g.degree)
            return original(g)

        return wrapper

    monkeypatch.setattr(cli, "diameter", counted(cli.diameter))
    monkeypatch.setattr(graph_engine, "diameter", counted(graph_engine.diameter))
    code, out = run(capsys, "xi", "--n", "8", "--format", "json", "--cache-dir", cache_dir)
    assert code == 0 and json.loads(out)["xi_diameter"] == 6
    assert calls == [8]


def test_graph_json(capsys, cache_dir):
    code, out = run(
        capsys, "graph", "--n", "3", "--format", "json", "--cache-dir", cache_dir
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 3 and payload["edges"] == [[0, 1]]


def test_oracle_edges_clean(capsys, cache_dir):
    code, out = run(
        capsys, "oracle-edges", "--n", "6", "--group", "sym", "--cache-dir", cache_dir
    )
    assert code == 0 and out.startswith("0 diffs") and "(0 edges)" in out


def test_oracle_wreath(capsys, cache_dir):
    code, out = run(capsys, "oracle-wreath", "--n", "6", "--cache-dir", cache_dir)
    assert code == 0 and out.startswith("0 diffs")


def test_witness_verified_exit_zero(capsys, cache_dir):
    code, out = run(
        capsys, "witness", "--lemma", "mun", "--n", "11", "--cache-dir", cache_dir
    )
    assert code == 0
    assert json.loads(out)["nonadjacency"] == "verified"


def test_witness_lm(capsys, cache_dir):
    code, out = run(
        capsys, "witness", "--lemma", "lm", "--n", "19", "--cache-dir", cache_dir
    )
    assert code == 0
    assert json.loads(out)["isolated"] == ["3,3,3,3,3,3,1"]


def test_isolated_family(capsys, cache_dir):
    code, out = run(
        capsys, "isolated", "--n", "9", "--group", "alt", "--family",
        "--cache-dir", cache_dir,
    )
    assert code == 0 and out.strip() == "3,1,1,1,1,1,1"


def test_catalog_listing(capsys, cache_dir):
    code, out = run(capsys, "catalog", "--n", "7", "--cache-dir", cache_dir)
    assert code == 0
    assert "PSL(3,2): order 168" in out


def test_usage_errors(capsys, cache_dir):
    assert run(capsys, "graph")[0] == 2  # missing --n
    # off the catalog both commands reach main's CatalogAbsent handler
    supported = ", ".join(map(str, sorted(subgroup_membership.EXACT_DEGREES)))
    for command in ("graph", "catalog"):
        assert main([command, "--n", "14", "--cache-dir", cache_dir]) == 2
        err = capsys.readouterr().err
        assert err == f"error: exact mode supports degrees {supported}; not 14\n"
    assert run(capsys, "witness", "--lemma", "p", "--n", "23", "--cache-dir", cache_dir)[0] == 2
    assert run(capsys, "oracle-edges", "--n", "10", "--cache-dir", cache_dir)[0] == 2
    for n in ("0", "-5"):  # no degree to check
        assert main(["oracle-wreath", "--n", n]) == 2
        assert capsys.readouterr() == ("", "error: need n >= 1\n")
    for n in ("1", "7"):  # no proper block size, so nothing to compare
        assert main(["oracle-wreath", "--n", n]) == 2
        assert capsys.readouterr() == ("", f"error: degree {n} has no proper block size\n")


def test_byte_identical_reruns(capsys, cache_dir):
    _, first = run(capsys, "graph", "--n", "8", "--format", "dot", "--cache-dir", cache_dir)
    _, second = run(capsys, "graph", "--n", "8", "--format", "dot", "--cache-dir", cache_dir)
    assert first == second
    witness = ("witness", "--lemma", "mun", "--n", "24", "--group", "alt", "--cache-dir", cache_dir)
    _, first = run(capsys, *witness)
    _, second = run(capsys, *witness)
    assert first and first == second


def test_output_file(tmp_path, capsys, cache_dir):
    out_file = tmp_path / "graph.csv"
    code, _ = run(
        capsys, "graph", "--n", "5", "--format", "csv", "--out", str(out_file),
        "--cache-dir", cache_dir,
    )
    assert code == 0
    assert out_file.read_text().startswith("v1,v2")


def test_survey_script_follows_cache_env(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_diameter_survey.py"
    spec = importlib.util.spec_from_file_location("run_diameter_survey", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "EXACT_DEGREES", frozenset({5}))
    monkeypatch.setenv("INVGRAPH_CACHE_DIR", str(tmp_path))
    module.main([])
    assert [p.name for p in tmp_path.iterdir()] == ["fingerprints-deg5.json"]
    assert "S_5" in capsys.readouterr().out


def test_cache_dir_before_the_subcommand(tmp_path, capsys):
    for argv in (
        ["--cache-dir", str(tmp_path / "top"), "catalog", "--n", "5"],
        ["catalog", "--n", "5", "--cache-dir", str(tmp_path / "sub")],
    ):
        code, _ = run(capsys, *argv)
        assert code == 0
    assert (tmp_path / "top" / "fingerprints-deg5.json").exists()
    assert (tmp_path / "sub" / "fingerprints-deg5.json").exists()


def test_parser_keeps_no_arguments_between_calls(tmp_path, monkeypatch, capsys):
    # main builds its parser once; a call that omits --cache-dir or --out
    # must not inherit them from an earlier call that named them
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("INVGRAPH_CACHE_DIR", str(tmp_path / "env"))
    out_file = tmp_path / "catalog.txt"
    first = (
        ["--cache-dir", str(tmp_path / "top"), "catalog", "--n", "5", "--out", str(out_file)],
        ["catalog", "--n", "6", "--cache-dir", str(tmp_path / "sub")],
    )
    for argv, degree in zip(first, (5, 6)):
        code, _ = run(capsys, *argv)
        assert code == 0
        code, out = run(capsys, "catalog", "--n", str(degree))
        assert code == 0 and out.startswith(("C5:", "PSL(2,5):"))
        assert (tmp_path / "env" / f"fingerprints-deg{degree}.json").exists()
    assert out_file.read_text().startswith("C5:")
    assert (tmp_path / "top" / "fingerprints-deg5.json").exists()
    assert (tmp_path / "sub" / "fingerprints-deg6.json").exists()
    monkeypatch.delenv("INVGRAPH_CACHE_DIR")
    code, _ = run(capsys, "catalog", "--n", "7")
    assert code == 0
    assert [p.name for p in (tmp_path / ".invgraph-cache").iterdir()] == ["fingerprints-deg7.json"]
    assert sorted(p.name for p in (tmp_path / "env").iterdir()) == [
        "fingerprints-deg5.json", "fingerprints-deg6.json"
    ]


def test_oracle_wreath_past_the_cap_is_a_usage_error(capsys, monkeypatch):
    # with a cap of 100 the first block size at n = 8 (order 384) is refused
    monkeypatch.setattr(subgroup_membership, "_WREATH_ORACLE_CAP", 100)
    subgroup_membership._wreath_type_set.cache_clear()
    code = main(["oracle-wreath", "--n", "8"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: S2 wr S4 has order 384, above the oracle's cap 100\n"
