"""End-to-end runs of the console entry point, in-process via main(argv)."""

import csv
import json

import pytest

from xtrees import verify
from xtrees.cli import _witness_dict, main
from xtrees.io import dumps_graph, graph_to_dict, load_graph
from xtrees.order import CgGraph, OrderedGraph
from xtrees.constructions import f_n, fh_q, fh_r, gstar
from xtrees.solver import extremal_number
from xtrees.trees import (
    CgZDecomposition,
    CrossingPath4,
    ObstructionWitness,
    TwinCrossingPaths,
    ZDecomposition,
    classify_tree,
    enumerate_trees,
)

P = OrderedGraph(4, [(1, 3), (1, 4), (2, 4)])


def _write(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(dumps_graph(graph))
    return str(path)


class TestConstruct:
    def test_pow2_edge_count(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["construct", "--name", "pow2", "--n", "8", "-o", str(out)]) == 0
        g = load_graph(str(out))
        assert g.n == 8 and len(g.edges) == 17

    def test_stdout_json(self, capsys):
        assert main(["construct", "--name", "f_n0", "--n", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 8 and doc["mode"] == "cg"

    def test_gstar_requires_fan_sizes(self, capsys):
        assert main(["construct", "--name", "gstar", "--n", "8"]) == 2

    def test_dot_output(self, capsys):
        assert main(["construct", "--name", "pow2", "--n", "4", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("graph {")

    def test_svg_output(self, tmp_path):
        out = tmp_path / "g.svg"
        assert main(["construct", "--name", "f_n", "--n", "8", "--svg", "-o", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_odd_fh_rejected(self, capsys):
        assert main(["construct", "--name", "fh_q", "--n", "7"]) == 2

    @pytest.mark.parametrize("name, n", [("pow2", 10**6), ("fh_q", 2**20), ("fh_r", 2**20),
                                         ("f_n", 2**20), ("f_n0", 10**6), ("gstar", 10**6)])
    def test_over_budget_construction_refused(self, capsys, name, n):
        """Refused before any edge is built, so each call returns at once;
        only gstar reads --a, --b and --c."""
        assert main(["construct", "--name", name, "--n", str(n), "--a", "1", "--b", "1",
                     "--c", "1"]) == 3
        assert capsys.readouterr().err.startswith("refused: ")

    @pytest.mark.parametrize(
        "args, graph",
        [
            (["--name", "gstar", "--n", "20", "--a", "2", "--b", "1", "--c", "3"],
             gstar(20, 2, 1, 3)),
            (["--name", "fh_q", "--n", "8"], fh_q(4)),
            (["--name", "fh_r", "--n", "16"], fh_r(8)),
        ],
        ids=["gstar", "fh_q", "fh_r"],
    )
    def test_parameterised_builders(self, capsys, args, graph):
        """gstar takes its fan sizes in order; fh_q and fh_r take the vertex
        count, twice their stage."""
        assert main(["construct", *args]) == 0
        assert json.loads(capsys.readouterr().out) == graph_to_dict(graph)


class TestContains:
    def test_found_and_not_found(self, tmp_path, capsys):
        host = _write(tmp_path, "host.json", OrderedGraph(5, [(1, 3), (1, 4), (2, 4), (2, 5)]))
        pat = _write(tmp_path, "pat.json", P)
        assert main(["contains", "--host", host, "--pattern", pat]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["found"] is True and len(doc["embedding"]["map"]) == 4

        path = _write(tmp_path, "path.json", OrderedGraph(5, [(i, i + 1) for i in range(1, 5)]))
        assert main(["contains", "--host", path, "--pattern", pat]) == 3
        assert json.loads(capsys.readouterr().out)["found"] is False

    def test_all_streams_every_embedding(self, tmp_path, capsys):
        host = _write(tmp_path, "host.json", OrderedGraph(4, [(1, 2), (2, 3), (3, 4)]))
        pat = _write(tmp_path, "pat.json", OrderedGraph(2, [(1, 2)]))
        assert main(["contains", "--host", host, "--pattern", pat, "--all"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(ln)["reflected"] is False for ln in lines)

    def test_reflect_rejected_for_ordered(self, tmp_path, capsys):
        host = _write(tmp_path, "host.json", OrderedGraph(3, [(1, 2)]))
        pat = _write(tmp_path, "pat.json", OrderedGraph(2, [(1, 2)]))
        assert main(["contains", "--host", host, "--pattern", pat, "--reflect"]) == 2
        assert "error:" in capsys.readouterr().err


def ref_witness_dict(w):
    """The verdict witness as the CLI wrote it field by field, one branch per
    witness type."""
    if w is None:
        return None
    if isinstance(w, ZDecomposition):
        return {
            "hub": list(w.hub),
            "core": [list(e) for e in w.core],
            "s_j": [list(e) for e in w.s_j],
            "s_i": [list(e) for e in w.s_i],
        }
    if isinstance(w, CgZDecomposition):
        return {"rotation": w.rotation, "linear": ref_witness_dict(w.linear)}
    if isinstance(w, ObstructionWitness):
        emb = w.embedding
        return {
            "pattern": graph_to_dict(w.pattern),
            "embedding": {"mode": emb.mode, "map": list(emb.map), "reflected": emb.reflected},
        }
    if isinstance(w, CrossingPath4):
        return {"vertices": list(w.vertices), "crossing": [list(e) for e in w.crossing]}
    if isinstance(w, TwinCrossingPaths):
        return {"shared": w.shared, "path1": list(w.path1), "path2": list(w.path2)}
    raise TypeError(w)


class TestClassifyAndEnumerate:
    def test_witness_json_matches_the_field_by_field_writer(self):
        kinds = set()
        for mode in ("linear", "cyclic"):
            for k in range(1, 6):
                for t in enumerate_trees(k, mode):
                    w = classify_tree(t).witness
                    kinds.add(type(w))
                    assert json.dumps(_witness_dict(w)) == json.dumps(ref_witness_dict(w)), t
        assert len(kinds) == 6  # no witness, and each of the five witness types

    def test_classify_crossing_pattern(self, tmp_path, capsys):
        pat = _write(tmp_path, "p.json", P)
        assert main(["classify", "--input", pat]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "NonLinear" and doc["chi"] == 2

    def test_classify_linear_tree(self, tmp_path, capsys):
        pat = _write(tmp_path, "z.json", OrderedGraph(4, [(1, 3), (2, 3), (2, 4)]))
        assert main(["classify", "--input", pat]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "Linear" and doc["formula"] == "2n - 3"

    def test_enumerate_count_matches_cayley(self, capsys):
        assert main(["enumerate", "--edges", "3", "--mode", "linear"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 16

    def test_enumerate_over_budget_refused(self, capsys):
        """7 edges is well-formed but over the enumeration budget: exit 3,
        as catalog --max-edges 7; 0 edges is malformed: exit 2."""
        assert main(["enumerate", "--edges", "7", "--mode", "linear"]) == 3
        assert capsys.readouterr().err.startswith("refused: ")
        assert main(["enumerate", "--edges", "0", "--mode", "linear"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_enumerate_chi2_is_a_subset(self, capsys):
        assert main(["enumerate", "--edges", "4", "--mode", "cyclic", "--chi2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        docs = [json.loads(ln) for ln in lines]
        assert 0 < len(docs) < 125
        assert all(d["mode"] == "cg" for d in docs)


class TestCatalog:
    def test_writes_one_file_per_pattern(self, tmp_path, capsys):
        assert main(["catalog", "--max-edges", "4", "-o", str(tmp_path)]) == 0
        files = sorted(tmp_path.glob("obstruction_*.json"))
        assert len(files) == 5
        docs = [json.loads(f.read_text()) for f in files]
        assert [tuple(map(tuple, d["edges"])) for d in docs][0] == ((1, 3), (1, 4), (2, 4))
        assert all(d["provenance"] in ("pinned", "derived") for d in docs)
        out = capsys.readouterr().out
        assert all(f.name in out for f in files)


class TestSolve:
    def test_known_value(self, tmp_path, capsys):
        pat = _write(tmp_path, "z.json", OrderedGraph(4, [(1, 3), (2, 3), (2, 4)]))
        assert main(["solve", "--n", "5", "--pattern", pat]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 7
        assert len(doc["witness"]["edges"]) == 7

    def test_output_keys(self, tmp_path, capsys):
        pat = _write(tmp_path, "z.json", OrderedGraph(4, [(1, 3), (2, 3), (2, 4)]))
        assert main(["solve", "--n", "5", "--pattern", pat]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"n", "mode", "value", "witness", "pattern", "nodes", "seconds"}

    def test_oracle_flag_rejected(self, tmp_path):
        pat = _write(tmp_path, "z.json", OrderedGraph(4, [(1, 3), (2, 3), (2, 4)]))
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--n", "5", "--pattern", pat, "--oracle"])
        assert exc.value.code == 2

    def test_budget_refusal(self, tmp_path, capsys):
        pat = _write(tmp_path, "z.json", OrderedGraph(4, [(1, 3), (2, 3), (2, 4)]))
        assert main(["solve", "--n", "9", "--pattern", pat]) == 3
        assert "refused:" in capsys.readouterr().err

    def test_cg_pattern_solves_in_its_own_order(self, tmp_path, capsys):
        """The pattern file names its order, so solve takes no --mode."""
        ell = CgGraph(4, [(1, 2), (2, 3), (3, 4)])
        pat = _write(tmp_path, "l.json", ell)
        assert main(["solve", "--n", "5", "--pattern", pat]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "cg" and doc["pattern"]["mode"] == "cg"
        assert doc["value"] == extremal_number(5, ell).value
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--n", "5", "--pattern", pat, "--mode", "cyclic"])
        assert exc.value.code == 2


class TestEmbed:
    def test_dense_host_succeeds(self, tmp_path, capsys):
        import itertools

        host = _write(
            tmp_path, "k5.json", OrderedGraph(5, list(itertools.combinations(range(1, 6), 2)))
        )
        tree = _write(tmp_path, "z.json", OrderedGraph(4, [(1, 3), (2, 3), (2, 4)]))
        assert main(["embed", "--host", host, "--ztree", tree]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["found"] is True and len(doc["embedding"]["map"]) == 4

    def test_non_z_tree_rejected(self, tmp_path, capsys):
        host = _write(tmp_path, "h.json", OrderedGraph(5, [(1, 2)]))
        tree = _write(tmp_path, "p.json", P)
        assert main(["embed", "--host", host, "--ztree", tree]) == 2
        assert "error:" in capsys.readouterr().err


class TestExtract:
    def test_output_round_trips_as_a_graph(self, tmp_path, capsys):
        src = _write(tmp_path, "f16.json", f_n(16))
        out = tmp_path / "sub.json"
        rc = main(["extract", "--input", src, "--kind", "fast", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["extraction"]["kind"] == "fast"
        assert doc["extraction"]["achieved"] >= doc["extraction"]["bound"]
        g = load_graph(str(out))  # extra metadata key must not break parsing
        assert g.n == 16 and len(g.edges) == doc["extraction"]["achieved"]

    def test_host_over_budget_refused(self, tmp_path, capsys):
        """A graph file above the vertex budget is refused before the
        bipartite host, which has one entry per vertex, is built."""
        src = _write(tmp_path, "big.json", CgGraph(200_000, [(1, 2)], colors=[1]))
        assert main(["extract", "--input", src, "--kind", "fast"]) == 3
        assert capsys.readouterr().err.startswith("refused: graph has 200000 vertices; limit is 256")

    def test_fast_with_start_side_rejected(self, tmp_path, capsys):
        src = _write(tmp_path, "f16.json", f_n(16))
        assert main(["extract", "--input", src, "--kind", "fast", "--start", "A"]) == 2


class TestVerifyAndParsing:
    def test_verify_subset_passes(self, capsys):
        assert main(["verify", "--suite", "all", "--checks", "c05"]) == 0
        out = capsys.readouterr().out
        assert "c05" in out and "1/1 checks passed" in out

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_verify_report(self, tmp_path, suffix):
        report = tmp_path / f"r{suffix}"
        args = ["verify", "--checks", "c05", "--report", str(report)]
        assert main(args) == 0
        if suffix == ".csv":
            with open(report, newline="") as fh:
                rows = list(csv.DictReader(fh))
        else:
            doc = json.loads(report.read_text())
            assert doc["passed"] is True
            rows = doc["results"]
        assert [r["check_id"] for r in rows] == ["c05"]
        assert rows[0]["status"] == "pass" and float(rows[0]["seconds"]) >= 0

    def test_verify_prints_each_check_as_it_finishes(self, monkeypatch, capsys):
        seen = []

        def c09(seed):
            seen.append(capsys.readouterr().out)
            return {}, []

        monkeypatch.setitem(verify.CHECKS, "c09", ("stub", c09))
        assert main(["verify", "--checks", "c09,c05"]) == 0
        assert seen[0].startswith("c05  pass") and "checks passed" not in seen[0]
        assert capsys.readouterr().out.splitlines()[-1] == "2/2 checks passed"

    def test_failing_check_prints_its_detail(self, monkeypatch, capsys):
        monkeypatch.setitem(verify.CHECKS, "c05", ("stub", lambda seed: ({}, ["boom", "bang"])))
        assert main(["verify", "--checks", "c05"]) == 1
        first, last = capsys.readouterr().out.splitlines()
        assert first.startswith("c05  fail") and first.endswith("  [boom; bang]")
        assert last == "0/1 checks passed"

    @pytest.mark.parametrize("checks", [",", "", " , "])
    def test_empty_selection_refused(self, capsys, checks):
        assert main(["verify", "--checks", checks]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "no check selected" in err

    def test_unknown_check_refused_before_running(self, capsys):
        assert main(["verify", "--checks", "c05,c99"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unknown check 'c99'" in err

    def test_repeated_check_refused_before_running(self, capsys):
        assert main(["verify", "--checks", "c05,c05"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "more than once" in err

    def test_bad_report_suffix_refused_before_running(self, tmp_path, monkeypatch, capsys):
        def run_suite(*args, **kwargs):
            raise AssertionError("run_suite called despite a bad --report suffix")

        monkeypatch.setattr(verify, "run_suite", run_suite)
        report = tmp_path / "r.txt"
        assert main(["verify", "--checks", "c05", "--report", str(report)]) == 2
        assert "--report must end in .csv or .json" in capsys.readouterr().err
        assert not report.exists()

    def test_missing_file(self, capsys):
        assert main(["classify", "--input", "/nonexistent/nope.json"]) == 2

    @pytest.mark.parametrize(
        "data",
        [
            b'{"mode": "ordered", "n": 3, "edges": null}',
            b'{"mode": "ordered", "n": 3, "edges": 7}',
            b'{"mode": "ordered", "n": 3, "edges": [5]}',
            b'{"mode": "ordered", "n": 3, "edges": [[1, 2]], "colors": 5}',
            b'{"mode": "ordered", "n": 3, "edges": [[1, 2]]}\xff',
            b'{"mode": [], "n": 3, "edges": []}',
            b'{"mode": {}, "n": 3, "edges": []}',
        ],
        ids=["edges-null", "edges-int", "edge-int", "colors-int", "not-utf8", "mode-list",
             "mode-object"],
    )
    def test_malformed_file_is_an_input_error(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert main(["classify", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
