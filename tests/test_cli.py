import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from antimagic import cli, construction
from antimagic.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_VERIFY_FAIL,
    labeling_to_json,
    main,
)
from antimagic.construction import construct
from antimagic.generators import GeneratorConfig, random_caterpillar
from antimagic.graph_core import Caterpillar, OrientedLabeling, format_leaf_counts, parse_leaf_counts
from antimagic.verification import check_claims, check_weight_classes, verify_antimagic

from conftest import caterpillars

# run() resets stdin and drains the captured output on every call, so the
# function-scoped fixtures are safe to share between hypothesis examples.
reuses_fixtures = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)
CLASS_NAMES = ["light", "heavy", "leaf", "path_end_leaf"]


@st.composite
def corrupted_documents(draw):
    """A constructed labeling document with one key, entry or arc field dropped or replaced."""
    c = draw(caterpillars(max_spine=4, max_leaves_per_vertex=3))
    doc = target = labeling_to_json(*construct(c))
    key = draw(st.sampled_from(sorted(target)))
    while isinstance(target[key], (list, dict)) and draw(st.booleans()):
        target = target[key]
        keys = range(len(target)) if isinstance(target, list) else sorted(target)
        key = draw(st.sampled_from(keys))
    if isinstance(target, dict) and draw(st.integers(0, 3)) == 0:
        del target[key]
    else:
        target[key] = draw(st.integers(-1, 12) | st.sampled_from(CLASS_NAMES) | json_values)
    return doc


def run(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_p3_tsv(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["construct", "-"], stdin="2\n")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert "arc\t1\t0\t1" in lines
        assert "arc\t2\t0\t2" in lines
        assert "sum\t1\t-1" in lines
        assert "sum\t0\t3" in lines
        assert "sum\t2\t-2" in lines

    def test_dot_output(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["construct", "-", "--format", "dot"], stdin="1 0 1 0 1\n"
        )
        assert code == EXIT_OK
        assert out.startswith("digraph")
        assert out.count("->") == 7

    def test_empty_input(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["construct", "-"], stdin="")
        assert code == EXIT_OK
        assert out == ""

    def test_comments_skipped(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["construct", "-"], stdin="# hi\n\n2\n")
        assert code == EXIT_OK
        assert out

    def test_parse_error_has_line_number(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["construct", "-"], stdin="2\n0 1 0\n")
        assert code == EXIT_INPUT
        assert "line 2" in err

    @pytest.mark.parametrize(
        "line, err",
        [
            ("1 x 1", "bad leaf-count line '1 x 1'"),
            ("1_0 2", "bad leaf-count line '1_0 2'"),  # int() reads it as 10 2
            ("\u0663", "bad leaf-count line '\u0663'"),  # an Arabic-Indic 3
            ("+1 +1", "bad leaf-count line '+1 +1'"),  # int() reads signs
            ("01 -0 1", "bad leaf-count line '01 -0 1'"),  # and leading zeros
            ("2\x1c2", "bad leaf-count line '2\\x1c2'"),  # str.splitlines() splits here
            ("2\r2", "bad leaf-count line '2\\r2'"),  # a lone CR ends no line
            ("1 -1 1", "leaf counts must be nonnegative"),
        ],
    )
    def test_bad_leaf_count_line(self, capsys, monkeypatch, line, err):
        code, out, got = run(capsys, monkeypatch, ["construct", "-"], stdin=f"2\n{line}\n")
        assert (code, out, got) == (EXIT_INPUT, "", f"input error: line 2: {err}\n")

    def test_crlf_lines_parse(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "input.txt"
        f.write_bytes(b"# crlf\r\n2\r\n\t1 0 1 \r\n")
        lf = run(capsys, monkeypatch, ["construct", "-"], stdin="2\n1 0 1\n")
        assert run(capsys, monkeypatch, ["construct", str(f)]) == lf
        assert run(capsys, monkeypatch, ["construct", "-"], stdin="2\r\n1 0 1\r\n") == lf
        assert lf[0] == EXIT_OK

    def test_missing_file(self, capsys, monkeypatch, tmp_path):
        for command in ("construct", "verify"):
            code, out, err = run(capsys, monkeypatch, [command, str(tmp_path / "missing")])
            assert code == EXIT_INPUT
            assert out == ""
            assert "cannot read" in err

    @pytest.mark.parametrize("command", ["construct", "oracle"])
    def test_size_cap_refuses_before_building(self, capsys, monkeypatch, command):
        # m = 2 + 10^8 + 2: refused from the leaf counts alone, before any tree is built
        code, out, err = run(capsys, monkeypatch, [command, "-"], stdin="2\n1 100000000 1\n")
        assert code == EXIT_REFUSED
        assert out == ""
        assert err.startswith("refused: line 2: m=100000004")

    def test_size_cap_boundary(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_EDGES", 5)
        code, _, _ = run(capsys, monkeypatch, ["construct", "-"], stdin="1 1 1\n")  # m = 5
        assert code == EXIT_OK
        code, _, err = run(capsys, monkeypatch, ["construct", "-"], stdin="1 2 1\n")  # m = 6
        assert code == EXIT_REFUSED
        assert "m=6 exceeds" in err

    def test_file_input(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "input.txt"
        f.write_text("1 1 1\n")
        code, out, _ = run(capsys, monkeypatch, ["construct", str(f), "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["n"] == 6
        assert len(doc["arcs"]) == 5
        assert doc["k1"] == 2 and doc["k2"] == 3


ARC = {"from": 0, "to": 1, "label": 1}
BAD_ARCS = (
    "input error: bad labeling JSON: arcs must be an array of objects whose keys are exactly from, to and label\n"
)


class TestVerify:
    def construct_json(self, capsys, monkeypatch, line):
        _, out, _ = run(
            capsys, monkeypatch, ["construct", "-", "--format", "json"], stdin=line
        )
        return json.loads(out)

    def test_round_trip(self, capsys, monkeypatch):
        doc = self.construct_json(capsys, monkeypatch, "1 0 1 0 1\n")
        code, out, _ = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        assert code == EXIT_OK
        assert json.loads(out)["antimagic"] is True

    def test_swap_collision_detected(self, capsys, monkeypatch):
        doc = self.construct_json(capsys, monkeypatch, "1 1 1\n")
        # force two equal sums: both path-end leaves see labels 2 and 4;
        # swapping them makes both oriented sums equal in magnitude only,
        # so instead find a swap that actually collides by scanning
        arcs = doc["arcs"]
        found = None
        for i in range(len(arcs)):
            for j in range(i + 1, len(arcs)):
                trial = [dict(a) for a in arcs]
                trial[i]["label"], trial[j]["label"] = trial[j]["label"], trial[i]["label"]
                sums = {}
                for a in trial:
                    sums[a["to"]] = sums.get(a["to"], 0) + a["label"]
                    sums[a["from"]] = sums.get(a["from"], 0) - a["label"]
                for v in range(doc["n"]):
                    sums.setdefault(v, 0)
                if len(set(sums.values())) < doc["n"]:
                    found = trial
                    break
            if found:
                break
        assert found is not None
        mutated = {"n": doc["n"], "arcs": found}
        code, out, _ = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(mutated))
        assert code == EXIT_VERIFY_FAIL
        assert "duplicate_sum" in json.loads(out)["violations"]

    def test_non_bijection_rejected(self, capsys, monkeypatch):
        doc = {
            "n": 3,
            "arcs": [
                {"from": 0, "to": 1, "label": 1},
                {"from": 1, "to": 2, "label": 1},
            ],
        }
        code, out, err = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "input error: labels are not a bijection onto [1, m]\n"

    def test_non_tree_rejected(self, capsys, monkeypatch):
        # a triangle on 0, 1, 2 plus the isolated vertex 3
        doc = {
            "n": 4,
            "arcs": [
                {"from": 0, "to": 1, "label": 1},
                {"from": 1, "to": 2, "label": 2},
                {"from": 2, "to": 0, "label": 3},
            ],
        }
        code, out, err = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        assert code == EXIT_INPUT
        assert out == ""
        assert "do not form a tree" in err

    def test_self_loop_is_not_a_bijection_failure(self, capsys, monkeypatch):
        doc = {
            "n": 3,
            "arcs": [
                {"from": 0, "to": 0, "label": 1},
                {"from": 1, "to": 2, "label": 2},
            ],
        }
        code, out, err = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "input error: arcs do not form a tree: self-loop at vertex 0\n"

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("arcs", 0, "to"), 1.9),
            (("arcs", 0, "from"), True),
            (("arcs", 0, "label"), 2.5),
            (("n",), 6.0),
            (("sums", 0), 7.0),
            (("path", 0), 3.0),
            (("k1",), 2.0),
            (("k2",), True),
        ],
    )
    def test_non_integer_rejected(self, capsys, monkeypatch, keys, value):
        doc = self.construct_json(capsys, monkeypatch, "1 1 1\n")
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        code, out, err = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        assert code == EXIT_INPUT
        assert out == ""
        assert "expected an integer" in err

    def test_huge_n_refused_from_the_edge_count(self, capsys, monkeypatch):
        # nothing n-sized is built before the arc count is compared with n - 1
        doc = {"n": 10**12, "arcs": [{"from": 0, "to": 1, "label": 1}, {"from": 1, "to": 2, "label": 2}]}
        code, out, err = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        assert (code, out) == (EXIT_INPUT, "")
        assert err == (
            "input error: arcs do not form a tree: "
            "a tree on n=1000000000000 vertices needs 999999999999 edges, got 2\n"
        )

    def test_schema_violation(self, capsys, monkeypatch):
        code, _, _ = run(capsys, monkeypatch, ["verify", "-"], stdin="{\"arcs\": 3}")
        assert code == EXIT_INPUT

    def test_class_checks_from_json(self, capsys, monkeypatch):
        doc = self.construct_json(capsys, monkeypatch, "1 0 0 0 2\n")
        code, _, _ = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        assert code == EXIT_OK

    def test_reversed_path_fails(self, capsys, monkeypatch):
        doc = self.construct_json(capsys, monkeypatch, "1 1 1\n")
        doc["path"].reverse()
        code, out, _ = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        assert code == EXIT_VERIFY_FAIL
        assert "u0_weight" in json.loads(out)["violations"]

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"classes": {"x": "light"}}, "classes"),
            ({"sums": {"x": 1}}, "sums"),
            ({"sums": [1, 2]}, "sums"),
            ({"path": [-1]}, "out of range"),
            ({"classes": lambda doc: [["light"], *doc["classes"][1:]]}, "expected a class name, got list"),
            ({"classes": lambda doc: ["medium", *doc["classes"][1:]]}, "unknown class"),
            ({"path": ["a"]}, "path"),
            ({"path": [99]}, "out of range"),
            ({"path": []}, "path"),
            ({"path": None}, "missing path"),
            ({"k1": None, "k2": None}, "missing k1, k2"),
            ({"k1": float("inf")}, "k1"),
            ({"n": 5, "arcs": []}, "n=5"),
            ({"n": 10**12}, "n="),
            ({"classes": lambda doc: doc["classes"][1:]}, "n=6 class names"),
            ({"path": lambda doc: doc["path"][::2]}, "not joined by an arc"),
            ({"path": lambda doc: [*doc["path"], doc["path"][-2]]}, "repeats"),
            ({"path": lambda doc: doc["path"][:2]}, "not on the path"),
            # class names are checked as soon as the document is read, before the labeling
            ({"n": 7, "classes": lambda doc: ["medium", *doc["classes"][1:]]}, "unknown class 'medium'"),
            # an arc-shaped object in place of the arcs would iterate as its two parts
            (
                {
                    "n": 3,
                    "arcs": {"from": [1, 2], "to": 2, "label": {"from": 0, "to": 1, "label": 1, "x": 0}},
                    **dict.fromkeys(["sums", "classes", "path", "k1", "k2"]),
                },
                "arcs must be an array",
            ),
            # an arc has exactly the keys from, to and label
            ({"arcs": lambda doc: [*doc["arcs"][:-1], {**doc["arcs"][-1], "x": 0}]}, "arcs must be an array"),
            ({"arcs": lambda doc: [*doc["arcs"][:-1], {"from": 5, "to": 4}]}, "arcs must be an array"),
            # a class entry that is not a string is no class name
            ({"classes": lambda doc: [5, *doc["classes"][1:]]}, "expected a class name, got int"),
            ({"classes": lambda doc: [None, *doc["classes"][1:]]}, "expected a class name, got NoneType"),
            # vertex n is one past the last vertex
            ({"path": lambda doc: [*doc["path"][:-1], doc["n"]]}, "vertex 6 out of range for n=6"),
        ],
    )
    def test_malformed_document(self, capsys, monkeypatch, patch, message):
        doc = self.construct_json(capsys, monkeypatch, "1 1 1\n")
        doc.update({key: value(doc) if callable(value) else value for key, value in patch.items()})
        doc = {key: value for key, value in doc.items() if value is not None}
        code, out, err = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        assert code == EXIT_INPUT
        assert out == ""
        assert message in err

    def test_declared_sum_wrong_only_at_vertex_0(self, capsys, monkeypatch):
        doc = self.construct_json(capsys, monkeypatch, "1 1 1\n")
        doc["sums"][0] += 1
        code, out, _ = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        assert code == EXIT_VERIFY_FAIL
        assert json.loads(out)["violations"] == ["declared_sums_mismatch"]

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"label": ', '"label": 999, "label": '),  # in an arc
            ('{"n": ', '{"n": 6, "n": '),  # at top level, same value twice
            ('"sums": ', '"sums": [99], "sums": '),
            ('"classes": ', '"classes": ["light"], "classes": '),
        ],
        ids=["arc", "top_level", "sums", "classes"],
    )
    def test_duplicate_key_rejected(self, capsys, monkeypatch, old, new):
        text = json.dumps(self.construct_json(capsys, monkeypatch, "1 1 1\n"))
        assert run(capsys, monkeypatch, ["verify", "-"], stdin=text)[0] == EXIT_OK
        # the second key of each pair is the document's own, which a last-wins reader accepts
        code, out, err = run(capsys, monkeypatch, ["verify", "-"], stdin=text.replace(old, new, 1))
        assert (code, out) == (EXIT_INPUT, "")
        assert "duplicate key" in err

    @pytest.mark.parametrize(
        "line, seed, swap, violations, patch, message",
        [
            (
                "1 0 2 0 1 3 1",
                2,
                (4, 5),
                ["heavy_no_heavy_edge_range", "heavy_no_heavy_edge_not_decreasing", "class_ranges_overlap"],
                {"classes": lambda doc: [c for c in doc["classes"] if c != "heavy"]},
                "n=15 class names",
            ),
            (
                "2 0 0 2",
                0,
                (1, 3),
                ["heavy_no_heavy_edge_not_decreasing"],
                {"path": lambda doc: [doc["path"][0], doc["path"][-1]]},
                "vertices 4 and 3 are not joined by an arc",
            ),
            (
                "1 1 2",
                0,
                (0, 2),
                ["degree_one_range", "u0_weight"],
                {"k1": lambda doc: 1},
                "k1, k2 must be 2, 4 for m=6 and r=4, got 1, 4",
            ),
            # no violation to hide, but the class intervals of another split are not checked either
            ("1 1", 0, None, [], {"k2": lambda doc: 1}, "k1, k2 must be 1, 2 for m=3 and r=2, got 1, 1"),
        ],
        ids=["classes_without_heavy", "path_of_the_two_ends", "k1_below_the_split", "k2_below_the_split"],
    )
    def test_class_data_cannot_hide_violations(
        self, capsys, monkeypatch, line, seed, swap, violations, patch, message
    ):
        argv = ["construct", "-", "--format", "json", "--seed", str(seed)]
        doc = json.loads(run(capsys, monkeypatch, argv, stdin=line)[1])
        del doc["sums"]
        if swap is not None:
            a, b = (doc["arcs"][i] for i in swap)
            a["label"], b["label"] = b["label"], a["label"]
        code, out, _ = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        expected = EXIT_VERIFY_FAIL if violations else EXIT_OK
        assert (code, json.loads(out)["violations"]) == (expected, violations)
        # classes, a path or a split that would keep the failing vertices out of the checks are refused
        doc.update({key: value(doc) for key, value in patch.items()})
        code, out, err = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        assert (code, out) == (EXIT_INPUT, "")
        assert message in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 1, "arcs": [], "classes": ["leaf"], "path": [0], "k1": 1, "k2": -1},
            {
                "n": 2,
                "arcs": [{"from": 0, "to": 1, "label": 1}],
                "classes": ["path_end_leaf", "path_end_leaf"],
                "path": [0, 1],
                "k1": 0,
                "k2": 1,
            },
        ],
        ids=["one_vertex", "one_edge"],
    )
    def test_class_data_needs_two_edges(self, capsys, monkeypatch, doc):
        # the paper's split of [1, m] is defined only for m >= 2
        code, out, err = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        assert (code, out) == (EXIT_INPUT, "")
        assert f"defined for m >= 2; got m={len(doc['arcs'])}" in err
        del doc["classes"], doc["path"], doc["k1"], doc["k2"]
        assert run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))[0] == EXIT_OK

    @pytest.mark.parametrize(
        "change, code, err",
        [
            (lambda doc: doc["arcs"][0].update(extra=1), EXIT_INPUT, BAD_ARCS),
            (lambda doc: doc["arcs"].__setitem__(0, dict(reversed(doc["arcs"][0].items()))), EXIT_OK, ""),
            (lambda doc: doc["arcs"][0].pop("label"), EXIT_INPUT, BAD_ARCS),
            (lambda doc: doc["arcs"].__setitem__(0, list(doc["arcs"][0].values())), EXIT_INPUT, BAD_ARCS),
            # an arc-shaped object anywhere else is an object like any other
            (
                lambda doc: doc["path"].__setitem__(0, ARC),
                EXIT_INPUT,
                "input error: bad classes, path, k1 or k2: expected an integer, got dict\n",
            ),
            (
                lambda doc: doc["classes"].__setitem__(0, ARC),
                EXIT_INPUT,
                "input error: bad classes: expected a class name, got dict\n",
            ),
            (
                lambda doc: doc["classes"].__setitem__(0, {**ARC, "from": [0]}),
                EXIT_INPUT,
                "input error: bad classes: expected a class name, got dict\n",
            ),
            (
                lambda doc: doc.update(n=ARC),
                EXIT_INPUT,
                "input error: bad labeling JSON: expected an integer, got dict\n",
            ),
            (
                lambda doc: doc["sums"].__setitem__(0, ARC),
                EXIT_INPUT,
                "input error: bad sums: expected an integer, got dict\n",
            ),
            (
                lambda doc: doc.clear() or doc.update(ARC),
                EXIT_INPUT,
                "input error: bad labeling JSON: missing key 'n'\n",
            ),
            (
                lambda doc: doc.clear() or doc.update(n=3),
                EXIT_INPUT,
                "input error: bad labeling JSON: missing key 'arcs'\n",
            ),
        ],
        ids=[
            "extra_key", "reversed_keys", "no_label", "list_arc",
            "arc_in_path", "arc_in_classes", "arc_with_a_list_in_classes",
            "arc_as_n", "arc_in_sums", "arc_as_document", "no_arcs",
        ],
    )
    def test_arc_decoding(self, capsys, monkeypatch, change, code, err):
        doc = self.construct_json(capsys, monkeypatch, "1 1 1\n")
        change(doc)
        got_code, out, got_err = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        assert got_code == code
        if code == EXIT_OK:
            assert json.loads(out)["violations"] == [] and got_err == ""
        else:
            assert (out, got_err) == ("", err)

    @pytest.mark.parametrize("keys", itertools.permutations(cli.ARC_KEYS))
    def test_arc_key_order(self, capsys, monkeypatch, keys):
        doc = self.construct_json(capsys, monkeypatch, "1 1 1\n")
        expected = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        assert expected[0] == EXIT_OK
        doc["arcs"][1] = {key: doc["arcs"][1][key] for key in keys}
        assert run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc)) == expected

    def test_equal_weights_with_distinct_sums(self, capsys, monkeypatch):
        doc = self.construct_json(capsys, monkeypatch, "1 2\n")
        del doc["sums"]
        a, b = doc["arcs"][0], doc["arcs"][2]
        a["label"], b["label"] = b["label"], a["label"]  # sums 7 and -7
        code, out, _ = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        assert code == EXIT_VERIFY_FAIL
        assert json.loads(out)["antimagic"] is True
        assert json.loads(out)["violations"] == [
            "heavy_no_heavy_edge_range", "u0_weight", "class_ranges_overlap", "all_weights_not_distinct",
        ]

    def test_endpoints_checked_before_labels(self, capsys, monkeypatch):
        # the first arc's label is no integer, but the second arc's from is named first
        doc = {"n": 3, "arcs": [{"from": 0, "to": 1, "label": 1.5}, {"from": "x", "to": 2, "label": 2}]}
        code, out, err = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "input error: bad labeling JSON: expected an integer, got str\n"

    def test_whitespace_does_not_matter(self, capsys, monkeypatch):
        _, text, _ = run(capsys, monkeypatch, ["construct", "-", "--format", "json"], stdin="1 0 2 0 1\n")
        assert ", " not in text and ": " not in text  # written without spaces
        spaced = json.dumps(json.loads(text), indent=1)
        compact = run(capsys, monkeypatch, ["verify", "-"], stdin=text)
        assert compact[0] == EXIT_OK
        assert run(capsys, monkeypatch, ["verify", "-"], stdin=spaced) == compact

    @pytest.mark.parametrize(
        "text, name",
        [
            ("[1, 2]", "list"),
            ("3", "int"),
            ('"n"', "str"),
            ("null", "NoneType"),
        ],
    )
    def test_document_must_be_an_object(self, capsys, monkeypatch, text, name):
        code, out, err = run(capsys, monkeypatch, ["verify", "-"], stdin=text)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"input error: the document must be a JSON object, got {name}\n"

    @reuses_fixtures
    @given(
        caterpillars(),
        st.integers(0, 5),
        st.sampled_from(["none", "swap", "flip"]),
        st.integers(0, 2**16),
        st.integers(0, 2**16),
    )
    def test_agrees_with_library(self, capsys, monkeypatch, c, seed, mutation, i, j):
        ol, trace = construct(c, seed=seed)
        arcs, labels = list(ol.arcs), list(ol.labels)
        i, j = i % c.m, j % c.m
        if mutation == "swap":
            labels[i], labels[j] = labels[j], labels[i]
        elif mutation == "flip":
            arcs[i] = arcs[i][::-1]
        ol = OrientedLabeling(n=ol.n, arcs=tuple(arcs), labels=tuple(labels))
        stdin = json.dumps(labeling_to_json(ol, trace))
        code, out, _ = run(capsys, monkeypatch, ["verify", "-"], stdin=stdin)
        violations = json.loads(out)["violations"]
        assert code == (EXIT_VERIFY_FAIL if violations else EXIT_OK)
        report = check_weight_classes(ol, trace)
        shared = [v for v in violations if v not in ("duplicate_sum", "declared_sums_mismatch")]
        assert shared == report.violations
        # three readers of the same sums: verify's report, the library report, verify_antimagic
        antimagic = verify_antimagic(ol)
        assert ("duplicate_sum" not in violations) == json.loads(out)["antimagic"] == antimagic
        assert report.antimagic == antimagic

    @settings(reuses_fixtures, max_examples=300)
    @given(st.one_of(json_values.map(json.dumps), corrupted_documents().map(json.dumps), st.text()))
    def test_fuzz_exit_codes(self, capsys, monkeypatch, text):
        code, out, err = run(capsys, monkeypatch, ["verify", "-"], stdin=text)
        assert code in (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_INPUT)
        if code == EXIT_INPUT:
            assert out == "" and err.startswith("input error:")


def small_flags(draw, *names, values=st.integers(-3, 12)):
    """Each named flag left out or given a small integer, zero and negative ones included."""
    argv = []
    for name in names:
        value = draw(st.none() | values)
        if value is not None:
            argv += [name, str(value)]
    return argv


leaf_count_lines = st.lists(st.integers(-2, 6), max_size=6).map(lambda xs: " ".join(map(str, xs)))


@st.composite
def invocations(draw):
    """argv and stdin for construct, oracle, gen or stress."""
    command = draw(st.sampled_from(["construct", "oracle", "gen", "stress"]))
    stdin = draw(st.text() | st.lists(leaf_count_lines, max_size=4).map("\n".join))
    if command == "construct":
        formats = st.sampled_from(["json", "tsv", "dot"])
        return ["construct", "-", "--format", draw(formats), *small_flags(draw, "--seed")], stdin
    if command == "oracle":
        count_all = ["--count-all"] if draw(st.booleans()) else []
        return ["oracle", "-", "--cap", str(draw(st.integers(-2, 6))), *count_all], stdin
    if command == "gen":
        random_flag = ["--random"] if draw(st.booleans()) else []
        flags = ("--max-n", "--count", "--seed", "--spine-min", "--spine-max", "--leaf-budget")
        return ["gen", *random_flag, *small_flags(draw, *flags)], ""
    jobs = small_flags(draw, "--jobs", values=st.integers(-2, 3))
    return ["stress", *small_flags(draw, "--count", "--seed", "--max-m"), *jobs], ""


@settings(reuses_fixtures, max_examples=300, deadline=None)
@given(invocations())
@example((["oracle", "-", "--cap", "4"], "2\n1 1 1 1 1"))  # the first line's result used to be printed
def test_fuzz_exit_codes_every_command(capsys, monkeypatch, invocation):
    monkeypatch.setattr(cli, "MAX_EDGES", 200)  # digits in arbitrary text can spell a large m
    argv, stdin = invocation
    code, out, err = run(capsys, monkeypatch, argv, stdin=stdin)
    assert code in (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_INPUT, EXIT_REFUSED), err
    if code == EXIT_INPUT:
        assert out == "" and err.startswith("input error:")
    if code == EXIT_REFUSED:
        assert out == "" and err.startswith("refused:")


class TestOracle:
    def test_p3(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["oracle", "-", "--count-all"], stdin="2\n"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["orientations_with_solution"] == 2
        assert doc["pairs_enumerated"] == 8

    def test_witness_is_a_verified_document(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["oracle", "-", "--count-all"], stdin="2\n1 1\n")
        assert code == EXIT_OK
        results = [json.loads(line) for line in out.splitlines()]
        assert [r["m"] for r in results] == [2, 3]
        for r in results:
            doc = {"n": r["m"] + 1, "arcs": r["witness"]}
            code, out, err = run(capsys, monkeypatch, ["verify", "-"], stdin=json.dumps(doc))
            assert (code, err) == (EXIT_OK, "")
            assert json.loads(out)["antimagic"] is True

    def test_cap_refusal(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch, ["oracle", "-", "--cap", "4"], stdin="1 0 0 0 1\n"
        )
        assert code == EXIT_REFUSED
        assert "cap" in err

    def test_default_cap(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["oracle", "-"], stdin="1 0 0 0 0 0 0 1\n")  # m = 9
        assert (code, out) == (EXIT_REFUSED, "")
        assert err == "refused: m=9 exceeds the oracle cap 8; raise --cap explicitly\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "-", "--cap", "-1"],
        ["stress", "--max-m", "1"],
        ["stress", "--jobs", "0"],
        ["stress", "--count", "-1"],
        ["gen", "--random", "--count", "-1"],
        ["stress", "--jobs", "2"],
    ],
)
def test_bad_numeric_input(capsys, monkeypatch, argv):
    code, out, err = run(capsys, monkeypatch, argv, stdin="2\n")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("input error:")


def test_generation_caps(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_EDGES", 5)
    stress = ["stress", "--count", "3"]
    assert run(capsys, monkeypatch, stress + ["--max-m", "5"])[0] == EXIT_OK
    code, out, err = run(capsys, monkeypatch, stress + ["--max-m", "6"])
    assert (code, out) == (EXIT_REFUSED, "")
    assert "--max-m=6 exceeds" in err
    gen = ["gen", "--random", "--count", "20", "--spine-max", "2"]
    code, out, _ = run(capsys, monkeypatch, gen + ["--leaf-budget", "2"])  # m <= 2 + 2 + 1
    assert code == EXIT_OK
    assert max(len(counts) - 1 + sum(counts) for counts in map(parse_leaf_counts, out.splitlines())) <= 5
    code, out, err = run(capsys, monkeypatch, gen + ["--leaf-budget", "3"])
    assert (code, out) == (EXIT_REFUSED, "")
    assert "=6 exceeds" in err


def test_gen_order_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_ORDER", 5)
    code, out, _ = run(capsys, monkeypatch, ["gen", "--max-n", "5"])
    assert code == EXIT_OK
    assert out.splitlines() == ["2", "3", "1 1", "4", "1 2", "1 0 1"]
    code, out, err = run(capsys, monkeypatch, ["gen", "--max-n", "6"])
    assert (code, out) == (EXIT_REFUSED, "")
    assert "--max-n=6 exceeds" in err


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def fails(c, seed=0):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "construct", fails)
    code, out, err = run(capsys, monkeypatch, ["construct", "-"], stdin="2\n")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err.startswith("internal error: ZeroDivisionError: boom (at test_cli.py:")
    assert err.endswith(" in fails)\n")


def test_unlabeled_edge_is_an_invariant_violation(capsys, monkeypatch):
    label_heavy_edges = construction.label_heavy_edges

    def drops_a_label(*args):
        labels, *rest = label_heavy_edges(*args)
        labels.popitem()
        return labels, *rest

    monkeypatch.setattr(construction, "label_heavy_edges", drops_a_label)
    code, out, err = run(capsys, monkeypatch, ["construct", "-", "--format", "json"], stdin="1 1 1\n")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == "internal invariant violation: an off-path edge was never labeled\n"


def test_closed_pipe_ends_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    # gen prints ~1.7 MB here, far more than a pipe holds, so it writes after the close
    proc = subprocess.Popen(
        [sys.executable, "-m", "antimagic.cli", "gen", "--max-n", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.readline() == b"2\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()  # a no-op once it has exited
    with proc.stderr:
        assert (code, proc.stderr.read()) == (EXIT_OK, b"")


class TestTreeNotBuilt:
    """The construction, its checks and the JSON document need only the leaf counts."""

    @given(caterpillars(), st.integers(0, 3))
    def test_library(self, c, seed):
        ol, trace = construct(c, seed=seed)
        check_weight_classes(ol, trace)
        check_claims(c, ol, trace)
        labeling_to_json(ol, trace)
        assert "tree" not in c.__dict__

    @pytest.mark.parametrize(
        "argv",
        [["construct", "-", "--format", fmt] for fmt in ("json", "tsv", "dot")]
        + [["stress", "--count", "30", "--max-m", "60"]],
    )
    def test_cli(self, capsys, monkeypatch, argv):
        def unbuilt(c):
            raise AssertionError("Caterpillar.tree was read")

        monkeypatch.setattr(Caterpillar, "tree", property(unbuilt))
        assert run(capsys, monkeypatch, argv, stdin="1 0 2\n3\n2 1 1 4\n")[0] == EXIT_OK


class TestMemory:
    """Peak traced memory and document characters per edge at m = 20,000 (spine m/3), output held in memory."""

    M = 20_000

    def peak_per_edge(self, monkeypatch, argv, stdin):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        return peak / self.M, out.getvalue()

    def test_construct_and_verify(self, monkeypatch):
        spine = self.M // 3
        cfg = GeneratorConfig(spine_range=(spine, spine), leaf_budget=self.M - (spine - 1))
        c = random_caterpillar(cfg, rng=random.Random(5))
        assert abs(c.m - self.M) <= 2
        construct_peak, doc = self.peak_per_edge(
            monkeypatch, ["construct", "-", "--format", "json"], format_leaf_counts(c)
        )
        verify_peak, _ = self.peak_per_edge(monkeypatch, ["verify", "-"], doc)
        # measured 523 and 319 B/edge and 52.7 characters per edge (Python 3.11); a
        # document written with spaces has 61.1
        assert construct_peak < 580
        assert verify_peak < 350
        assert len(doc) / self.M < 55


class TestGen:
    def test_enumerate(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["gen", "--max-n", "4"])
        assert code == EXIT_OK
        assert out.splitlines() == ["2", "3", "1 1"]

    def test_random_deterministic(self, capsys, monkeypatch):
        args = ["gen", "--random", "--count", "5", "--seed", "9"]
        _, first, _ = run(capsys, monkeypatch, args)
        _, second, _ = run(capsys, monkeypatch, args)
        assert first == second
        assert len(first.splitlines()) == 5

    def test_gen_feeds_construct(self, capsys, monkeypatch):
        _, lines, _ = run(capsys, monkeypatch, ["gen", "--max-n", "8"])
        code, _, _ = run(capsys, monkeypatch, ["construct", "-"], stdin=lines)
        assert code == EXIT_OK


class TestStress:
    def test_small_run(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["stress", "--count", "25", "--max-m", "60", "--seed", "7"],
        )
        assert code == EXIT_OK
        summary = json.loads(out.splitlines()[-1])
        assert summary["instances"] == 25
        assert summary["violations"] == 0

    def test_zero_count(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["stress", "--count", "0"])
        assert code == EXIT_OK
        assert json.loads(out.splitlines()[-1])["instances"] == 0
        assert err == "mean wall time per instance: 0.000000s\n"  # and no slowest instance

    def test_repeatable(self, capsys, monkeypatch):
        args = ["stress", "--count", "10", "--max-m", "40", "--seed", "3"]
        _, first, _ = run(capsys, monkeypatch, args)
        _, second, _ = run(capsys, monkeypatch, args)
        assert first == second

    @settings(reuses_fixtures, max_examples=30, deadline=None)
    @given(st.integers(0, 2**16), st.integers(2, 12))
    @example(0, 5)  # instance 0 used to be drawn at m = 6
    def test_respects_max_m(self, capsys, monkeypatch, seed, max_m):
        argv = ["stress", "--count", "40", "--max-m", str(max_m), "--seed", str(seed)]
        code, out, _ = run(capsys, monkeypatch, argv)
        assert code == EXIT_OK
        assert json.loads(out.splitlines()[-1])["max_m"] <= max_m

    def test_slowest_instance_named_with_its_reproducer(self, capsys, monkeypatch):
        args = ["stress", "--count", "6", "--max-m", "40", "--seed", "3"]
        _, plain, _ = run(capsys, monkeypatch, args)
        stress_one = cli._stress_one

        def instance_2_slowest(task):
            r = stress_one(task)
            return cli.RunRecord(r.line, r.m, r.seed, r.violations, 9.0 if task[0] == 2 else r.wall_time)

        monkeypatch.setattr(cli, "_stress_one", instance_2_slowest)
        code, out, err = run(capsys, monkeypatch, args)
        assert (code, out) == (EXIT_OK, plain)
        mean, slowest = err.splitlines()
        assert mean.startswith("mean wall time per instance: ")
        expected = stress_one((2, 3, 40))
        assert slowest == (
            f'slowest instance: 9.000000s, m={expected.m}: '
            f'echo "{expected.line}" | antimagic construct - --seed 5'
        )
        code, _, _ = run(capsys, monkeypatch, ["construct", "-", "--seed", "5"], stdin=expected.line + "\n")
        assert code == EXIT_OK

    def test_failures_printed_as_they_arrive(self, capsys, monkeypatch):
        stress_one = cli._stress_one

        def second_never_finishes(task):
            if task[0] == 1:
                raise RuntimeError("instance 1 failed")
            record = stress_one(task)
            record.violations.append("planted")
            return record

        monkeypatch.setattr(cli, "_stress_one", second_never_finishes)
        code, out, _ = run(capsys, monkeypatch, ["stress", "--count", "3", "--seed", "2"])
        assert code == EXIT_INTERNAL
        assert json.loads(out)["violations"] == ["planted"]  # instance 0, printed before instance 1 ran
