"""
Unit tests for serialization and the command-line interface.

Core claims:
    - JSON export is byte-stable through import/export round-trips
    - Exported documents carry n, vids, colors, string labels, facets
    - DOT export: one node per vertex with a color attribute, one edge per
      1-skeleton edge; csv-fvector matches the frozen subdivision value
    - Unknown formats and malformed documents are rejected
    - Encoding sequences round-trip, including block metadata
    - CLI: gen/subdivide/protocol/greedy-star/simulate/verify/bounds/
      reduce-setcover/exact-min/export/counterexample wire together
    - Vid numbering follows the facet set, not the order the facets were
      listed in: equal complexes export equal bytes after subdivision and
      protocol rounds
    - Exit codes: 0 success, 1 failed verification, 2 usage (including
      non-integer set-cover items), 3 resources, 4 any other exception
    - --json-out mirrors a machine-readable summary
"""

import json

import pytest

from itermem import (
    ChromaticComplex,
    Encoding,
    UnsupportedFormat,
    chromatic_subdivide,
    export_complex,
    gen_glued,
    gen_random,
    gen_simplex,
    greedy_star,
    import_complex,
    protocol_complex,
)
from itermem.cli import main
from itermem.io import (
    complex_to_dict,
    encoding_from_dict,
    encoding_to_dict,
    sequence_from_list,
    sequence_to_list,
)


class TestComplexJson:
    def test_round_trip_stable(self):
        for c in (gen_simplex(2), gen_glued(2), chromatic_subdivide(gen_simplex(2))):
            blob = export_complex(c, "json")
            again = export_complex(import_complex(blob), "json")
            assert blob == again

    def test_export_ignores_facet_listing_order(self):
        builds = (
            chromatic_subdivide,
            lambda c: protocol_complex(c, "ias", 1),
            lambda c: protocol_complex(c, "iis", 2),
        )
        for seed in range(60):
            c = gen_random(seed, 3, 2 + seed % 5)
            up = ChromaticComplex(c.vertices, sorted(c.facets, key=sorted))
            down = ChromaticComplex(
                c.vertices, sorted(c.facets, key=sorted, reverse=True)
            )
            for build in builds:
                assert export_complex(build(up), "json") == export_complex(
                    build(down), "json"
                )

    def test_document_shape(self):
        d = complex_to_dict(gen_glued(2))
        assert d["n"] == 3
        assert {v["vid"] for v in d["vertices"]} == {0, 1, 2, 3}
        assert all(isinstance(v["label"], str) for v in d["vertices"])
        assert sorted(d["facets"]) == [[0, 1, 2], [1, 2, 3]]

    def test_tuple_labels_become_strings(self):
        ch = chromatic_subdivide(gen_simplex(2))
        d = complex_to_dict(ch)
        assert all(isinstance(v["label"], str) for v in d["vertices"])

    def test_import_rejects_garbage(self):
        with pytest.raises(UnsupportedFormat):
            import_complex(b"not json at all {")
        with pytest.raises(UnsupportedFormat):
            import_complex({"vertices": []})  # missing keys
        with pytest.raises(UnsupportedFormat):
            import_complex(
                {"n": 1, "vertices": [{"vid": 0, "color": 5, "label": ""}],
                 "facets": [[0]]}
            )  # n below the colors present

    def test_unknown_format(self):
        with pytest.raises(UnsupportedFormat):
            export_complex(gen_simplex(1), "yaml")


class TestOtherFormats:
    def test_dot_triangle(self):
        dot = export_complex(gen_simplex(2), "dot").decode()
        assert dot.count("[color=") == 3
        assert dot.count(" -- ") == 3
        assert dot.startswith("graph")

    def test_csv_fvector(self):
        ch = chromatic_subdivide(gen_simplex(2))
        assert export_complex(ch, "csv-fvector") == b"12,24,13"


class TestEncodingJson:
    def test_round_trip(self):
        e = Encoding({0: 1, 3: 2}, groups=((0, 1), (3,)))
        d = encoding_to_dict(e)
        assert d["assignment"] == {"0": 1, "3": 2}
        assert encoding_from_dict(d) == e
        assert encoding_from_dict(d).groups == e.groups

    def test_bottom_round_trip(self):
        d = {"assignment": {"0": 1, "1": None}}
        e = encoding_from_dict(d)
        assert e.value(1) is None

    def test_sequence_round_trip(self):
        c = gen_glued(2)
        seq, _ = greedy_star(c)
        doc = sequence_to_list(seq)
        assert sequence_from_list(doc) == seq

    def test_malformed(self):
        with pytest.raises(UnsupportedFormat):
            encoding_from_dict({"codes": {}})
        with pytest.raises(UnsupportedFormat):
            sequence_from_list({"assignment": {}})


class TestCli:
    def _gen(self, tmp_path, name="c.json", kind="glued", extra=()):
        path = tmp_path / name
        assert main(["gen", kind, "--k", "2", "--out", str(path), *extra]) == 0
        return path

    def test_gen_and_export(self, tmp_path, capsys):
        path = self._gen(tmp_path)
        assert main(["export", "--in", str(path), "--format", "csv-fvector"]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "4,5,2"

    def test_subdivide_and_protocol_agree(self, tmp_path):
        src = self._gen(tmp_path)
        ch, xi = tmp_path / "ch.json", tmp_path / "xi.json"
        assert main(["subdivide", "--in", str(src), "--rounds", "1",
                     "--out", str(ch)]) == 0
        assert main(["protocol", "--in", str(src), "--pattern", "iis",
                     "--rounds", "1", "--out", str(xi)]) == 0
        assert main(["verify", "--a", str(ch), "--b", str(xi)]) == 0

    def test_verify_detects_difference(self, tmp_path):
        a = self._gen(tmp_path, "a.json")
        b = tmp_path / "b.json"
        assert main(["gen", "simplex", "--n", "2", "--out", str(b)]) == 0
        assert main(["verify", "--a", str(a), "--b", str(b)]) == 1

    def test_greedy_simulate_pipeline(self, tmp_path):
        src = self._gen(tmp_path)
        enc = tmp_path / "e.json"
        trace = tmp_path / "t.json"
        assert main(["greedy-star", "--in", str(src), "--bits", "1",
                     "--out", str(enc), "--trace", str(trace)]) == 0
        assert json.loads(trace.read_text())["rounds"]
        assert main(["simulate", "--in", str(src), "--encodings", str(enc),
                     "--verify-against", "ic"]) == 0
        assert main(["verify", "--in", str(src), "--encodings", str(enc)]) == 0

    def test_simulate_flags_broken_sequence(self, tmp_path):
        src = self._gen(tmp_path)
        enc = tmp_path / "broken.json"
        enc.write_text(json.dumps(
            [{"assignment": {"0": 1, "1": 1, "2": 1, "3": 1}}]
        ))
        assert main(["simulate", "--in", str(src), "--encodings", str(enc),
                     "--verify-against", "ic"]) == 1

    def test_bounds_table(self, capsys):
        assert main(["bounds", "--n", "3", "--r", "1", "--b", "1"]) == 0
        out = capsys.readouterr().out
        assert "round lower bound: 4.0" in out
        assert "snapshot upper bound: 12.0" in out

    def test_bounds_two_process_row(self, capsys):
        assert main(["bounds", "--n", "2", "--r", "5", "--b", "1"]) == 0
        assert "two-process round complexity: 1" in capsys.readouterr().out

    def test_reduce_and_exact_min(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["reduce-setcover", "--universe", "1,2", "--subsets",
                     "1;2", "--out", str(out), "--explain"]) == 0
        capsys.readouterr()
        assert main(["exact-min", "--in", str(out)]) == 0
        assert "minimum rounds: 2" in capsys.readouterr().out

    def test_counterexample(self, tmp_path):
        summary = tmp_path / "s.json"
        assert main(["counterexample", "--json-out", str(summary)]) == 0
        doc = json.loads(summary.read_text())
        assert doc["intersection_preserved"] is False
        assert doc["repaired_isomorphic_to_full_information"] is True

    def test_json_out_summary(self, tmp_path):
        path = self._gen(tmp_path, extra=["--json-out", str(tmp_path / "s.json")])
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["facets"] == 2

    def test_usage_errors_exit_2(self, tmp_path):
        assert main(["gen", "nonsense"]) == 2  # argparse choice
        assert main(["subdivide", "--in", str(tmp_path / "missing.json")]) == 2
        assert main(["verify", "--a", "x"]) == 2  # incomplete mode
        assert main(["bounds", "--n", "1", "--r", "1", "--b", "1"]) == 2

    def test_non_integer_instance_exits_2(self, capsys):
        assert main(["reduce-setcover", "--universe", "a,b", "--subsets", "1"]) == 2
        assert main(["reduce-setcover", "--universe", "1", "--subsets", "x"]) == 2
        assert "need integers" in capsys.readouterr().err

    def test_crash_exits_4_not_a_verdict(self, tmp_path, monkeypatch, capsys):
        src = self._gen(tmp_path)

        def crash(a, b):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("itermem.cli.is_isomorphic", crash)
        assert main(["verify", "--a", str(src), "--b", str(src)]) == 4
        assert "RecursionError" in capsys.readouterr().err

    def test_resource_limit_exit_3(self, tmp_path):
        src = self._gen(tmp_path)
        assert main(["subdivide", "--in", str(src), "--rounds", "4",
                     "--max-facets", "100"]) == 3

    def test_seeded_gen_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "random", "--n", "3", "--facets", "5",
                     "--seed", "9", "--out", str(a)]) == 0
        assert main(["gen", "random", "--n", "3", "--facets", "5",
                     "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
