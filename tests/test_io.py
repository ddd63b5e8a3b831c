import json
import re
from fractions import Fraction

import pytest

from wadet import io
from wadet.cli import main
from wadet.corpus import load_fixture
from wadet.model import validate
from wadet.verdict import InternalError

from conftest import A1_description


def test_round_trip_is_byte_stable(tmp_path):
    doc = io.serialize(validate(A1_description()))
    text = io.dumps(doc)
    again = io.dumps(io.serialize(io.loads(text)))
    assert text == again


def test_zero_denominator_rejected():
    doc = io.serialize(validate(A1_description()))
    doc["transitions"][0]["weight"] = ["1/0"]
    with pytest.raises(io.ParseError) as err:
        io.parse(doc)
    assert "transitions[0].weight[0]" in str(err.value)


def test_rationals_canonicalized():
    doc = io.serialize(validate(A1_description()))
    doc["transitions"][0]["weight"] = ["-3/6"]
    a = io.parse(doc)
    out = io.serialize(a)
    weights = {w for t in out["transitions"] for w in t["weight"]}
    assert "-1/2" in weights and "-3/6" not in weights


def test_round_trip_is_byte_stable_with_mixed_int_and_fraction_weights():
    doc = {"format_version": 1, "k": 2, "states": ["p", "q"],
           "initial": [{"state": "p", "weight": ["6/2", "-1/2"]}],
           "events": [{"name": "a", "label": "a"}, {"name": "u", "label": None}],
           "transitions": [
               {"from": "p", "event": "a", "to": "q", "weight": ["1.5", "-4"]},
               {"from": "q", "event": "u", "to": "p", "weight": [2, "1e2"]},
               {"from": "q", "event": "a", "to": "q", "weight": ["-3/6", "0"]}]}
    a = io.loads(json.dumps(doc))
    assert a.initial["p"] == (3, Fraction(-1, 2))
    assert [type(x) for x in a.initial["p"]] == [int, Fraction]
    assert {t[3] for t in a.transitions} == {(Fraction(3, 2), -4), (2, 100), (Fraction(-1, 2), 0)}
    text = io.dumps(io.serialize(a))
    assert '"100"' in text and '"-1/2"' in text
    again = io.loads(text)
    assert again == a and io.dumps(io.serialize(again)) == text
    assert [[type(x) for x in w] for w in sorted(t[3] for t in again.transitions)] == \
        [[Fraction, int], [Fraction, int], [int, int]]


@pytest.mark.parametrize("text", ["3", "-0", "007", "+3", " 3", "1_0", "٣", "--3", "-", "",
                                  "1e400", "1/2", 1.5, True, None, 12, -12])
def test_str_to_rational_matches_fraction_of_str(text):
    # integers skip Fraction's string parser: same values, same errors; an
    # integral value is an int, any other a Fraction
    try:
        expected = Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(io.ParseError) as err:
            io.str_to_rational(text, "w[0]")
        assert str(err.value) == f"w[0]: bad rational {text!r} ({exc})"
    else:
        value = io.str_to_rational(text, "w[0]")
        assert value == expected
        assert type(value) is (int if expected.denominator == 1 else Fraction)


@pytest.mark.parametrize("literal, exact", [
    ("1.5", Fraction(3, 2)), ("-2.5e-1", Fraction(-1, 4)),
    ("12345678901234567890.0", Fraction(12345678901234567890)), ("1e400", Fraction(10 ** 400))])
def test_number_literal_weights_are_exact(literal, exact):
    # read from the literal's text: a float would round the long literal
    # to 12345678901234567000 and overflow on 1e400
    doc = io.serialize(validate(A1_description()))
    first = doc["transitions"][0]
    first["weight"] = ["W"]
    a = io.loads(json.dumps(doc).replace('"W"', literal))
    key = (first["from"], first["event"], first["to"])
    assert [w for (*t, w) in a.transitions if tuple(t) == key] == [(exact,)]


def test_cli_gen_with_invalid_k_reports_only_k(capsys):
    assert main(["gen", "random", "--seed", "1", "--k", "0"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == \
        "dimension k must be a positive integer, got 0"


def test_malformed_json_reports_location():
    with pytest.raises(io.ParseError) as err:
        io.loads("{ not json")
    assert "line" in str(err.value)


def test_deeply_nested_document_is_an_input_error(tmp_path, capsys):
    # the decoder recurses once per level, so nesting deeper than the
    # recursion limit is malformed JSON (exit 3), not an internal error
    bad = tmp_path / "deep.json"
    for text in ("[" * 100000 + "]" * 100000, '{"states": ' + "[" * 5000 + "]" * 5000 + "}"):
        bad.write_text(text)
        assert main(["check", "all", str(bad)]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.err) == {"error": "malformed JSON: nested too deeply"}
        assert captured.out == "" and "Traceback" not in captured.err


def test_fixture_files_parse(tmp_path):
    for name in ("A0", "A1", "robot"):
        fx = load_fixture(name)
        assert fx.automaton.states


# -- CLI ----------------------------------------------------------------------


@pytest.fixture
def a1_file(tmp_path):
    path = tmp_path / "A1.json"
    path.write_text(io.dumps(io.serialize(validate(A1_description()))))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_cli_validate(a1_file, capsys):
    code, out = run_cli(capsys, "validate", a1_file)
    assert code == 0
    assert out["valid"] and out["states"] == 5
    assert out["structure"]["unambiguous"] is False


def test_cli_check_all_exit_code(a1_file, capsys):
    code, out = run_cli(capsys, "check", "all", a1_file)
    assert code == 1  # one property fails
    statuses = {p: v["status"] for p, v in out["verdicts"].items()}
    assert statuses == {"SD": "HOLDS", "SPD": "FAILS", "WD": "HOLDS", "WPD": "HOLDS"}


def test_cli_check_single_properties(a1_file, capsys):
    assert run_cli(capsys, "check", "sd", a1_file)[0] == 0
    assert run_cli(capsys, "check", "spd", a1_file)[0] == 1
    assert run_cli(capsys, "check", "wd", a1_file)[0] == 0


def test_cli_estimate(a1_file, capsys):
    code, out = run_cli(capsys, "estimate", a1_file, "--obs", "(rho,1);(rho,2)")
    assert code == 0
    assert out["estimate"] == ["q3"]


def test_cli_estimate_bad_obs(a1_file, capsys):
    code = main(["estimate", a1_file, "--obs", "rho,1"])
    assert code == 3


def test_cli_gen_pipe_check(capsys, monkeypatch, tmp_path):
    code, doc = run_cli(capsys, "gen", "subset-sum", "--weights", "2,3", "--target", "5")
    assert code == 0
    path = tmp_path / "gen.json"
    path.write_text(io.dumps(doc))
    assert main(["check", "sd", str(path)]) == 1
    capsys.readouterr()
    code, _ = run_cli(capsys, "gen", "subset-sum", "--weights", "2,4", "--target", "5",
                      "-o", str(path))
    assert main(["check", "sd", str(path)]) == 0


def test_cli_reads_stdin(capsys, monkeypatch, a1_file):
    import io as std_io
    monkeypatch.setattr("sys.stdin", std_io.StringIO(open(a1_file).read()))
    code, out = run_cli(capsys, "check", "sd", "-")
    assert code == 0


def test_cli_normalize_and_fixture_gen(capsys, tmp_path):
    code, doc = run_cli(capsys, "gen", "fixture", "robot")
    assert code == 0
    path = tmp_path / "robot.json"
    path.write_text(io.dumps(doc))
    code2, normed = run_cli(capsys, "normalize", str(path))
    assert code2 == 0
    assert any(e["label"] is None and e["name"].startswith("alpha")
               for e in normed["events"])


def test_cli_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["check", "sd", str(bad)]) == 3
    assert main(["validate", str(tmp_path / "missing.json")]) == 3
    capsys.readouterr()
    doc = io.serialize(validate(A1_description()))
    for key, value in (("initial", ["a"]), ("events", [3]), ("transitions", [None]),
                       ("k", True), ("format_version", True), ("format_version", 1.0),
                       ("format_version", "1"), ("states", "ab"), ("initial", {"q0": ["0"]}),
                       ("events", "e"), ("transitions", {}),
                       ("initial", [{"state": ["q0"], "weight": ["0"]}]),
                       ("events", [{"name": {"u": 1}, "label": None}]),
                       *(("events", [{**doc["events"][0], "label": label}, *doc["events"][1:]])
                         for label in (["x"], {"a": 1}))):
        bad.write_text(json.dumps({**doc, key: value}))
        assert main(["check", "all", str(bad)]) == 3, (key, value)
        assert key in json.loads(capsys.readouterr().err)["error"]
    good = tmp_path / "good.json"
    good.write_text(io.dumps(doc))
    bad.write_bytes(b"\xff{}")
    for argv, key in ((["check", "all", str(bad)], "utf-8"),
                      (["estimate", str(good), "--obs", "(rho,1 2)"], "obs[0]"),
                      (["estimate", str(good), "--obs", "(rho,1);rho"], "obs[1]"),
                      (["gen", "subset-sum", "--weights", "2,x", "--target", "5"], "--weights"),
                      (["gen", "subset-sum", "--weights", "2,-3", "--target", "5"], "--weights"),
                      (["estimate", str(good), "--obs", "(rho,x)"], "obs[0].weight")):
        assert main(argv) == 3, argv
        assert key in json.loads(capsys.readouterr().err)["error"]


def test_cli_usage_errors_are_input_errors(a1_file, capsys):
    # argparse exits 2 on a usage error, which here means UNKNOWN
    for argv, key in ((["check", "sdd", a1_file], "invalid choice: 'sdd'"),
                      (["gen", "random", "--seed", "x"], "invalid int value: 'x'"),
                      (["frob", a1_file], "invalid choice: 'frob'"),
                      (["oracle", "falsify", a1_file, "--property", "sd"],
                       "invalid choice: 'oracle'"),
                      (["estimate", a1_file], "--obs")):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "" and key in json.loads(captured.err)["error"], argv
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--help"])
    assert exit_info.value.code == 0


@pytest.mark.parametrize("level, index", [("document", None), ("initial", 0),
                                          ("events", 1), ("transitions", 2)])
def test_unknown_keys_are_input_errors(tmp_path, capsys, level, index):
    doc = io.serialize(validate(A1_description()))
    if index is None:
        doc["bogus"], path = 3, "bogus"
    else:
        doc[level][index]["bogus"], path = 3, f"{level}[{index}].bogus"
    with pytest.raises(io.ParseError) as err:
        io.parse(doc)
    assert err.value.context == path
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", "sd", str(bad)]) == 3
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"{path}: unknown key")


@pytest.mark.parametrize("level, index", [("initial", 0), ("transitions", 1)])
def test_weight_of_wrong_dimension_is_an_input_error(tmp_path, capsys, level, index):
    doc = io.serialize(validate(A1_description()))
    doc[level][index]["weight"], path = ["1", "2"], f"{level}[{index}].weight"
    with pytest.raises(io.ParseError) as err:
        io.parse(doc)
    assert err.value.context == path
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", "all", str(bad)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == (
        f"{path}: weight has dimension 2, expected 1")


@pytest.mark.parametrize("level, entry, path", [
    ("events", {"name": "a", "label": None}, "events[1].name"),
    ("initial", {"state": "q0", "weight": ["7"]}, "initial[1].state"),
])
def test_repeated_entry_that_disagrees_is_an_input_error(tmp_path, capsys, level, entry, path):
    doc = io.serialize(validate(A1_description()))
    first = doc[level][0]
    assert first[next(iter(entry))] == next(iter(entry.values()))  # the same name
    doc[level].insert(1, first)
    assert io.parse(doc) == validate(A1_description())  # an agreeing repeat is harmless
    doc[level][1] = entry
    with pytest.raises(io.ParseError) as err:
        io.parse(doc)
    assert err.value.context == path
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", "all", str(bad)]) == 3
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"{path}: ")
    # 7 and "7" name one event once validated
    events = [{"name": 7, "label": "a"}, {"name": "7", "label": None}]
    with pytest.raises(io.ParseError) as err:
        io.parse({**io.serialize(validate(A1_description())), "events": events})
    assert err.value.context == "events[1].name"


MISSING = object()


@pytest.mark.parametrize("level, key, value", [
    ("transitions", "from", MISSING), ("transitions", "event", MISSING),
    ("transitions", "to", MISSING), ("initial", "state", MISSING), ("events", "name", MISSING),
    ("transitions", "from", ["q0"]), ("states", None, ["q0"]),
    ("states", None, True), ("initial", "state", True), ("events", "name", False),
    ("events", "label", False), ("transitions", "from", True), ("transitions", "event", False),
    ("transitions", "to", True),
], ids=["from", "event", "to", "state", "name", "from-array", "states-array", "states-true",
        "state-true", "name-false", "label-false", "from-true", "event-false", "to-true"])
def test_names_must_be_present_and_scalar(tmp_path, capsys, level, key, value):
    # the document declares a state and an event named "None", so a name
    # missing and read as str(None) would validate, as would the state
    # named "['q0']"
    description = A1_description()
    description["states"].append("None")
    description["events"]["None"] = None
    doc = io.serialize(validate(description))
    assert io.parse(doc) == validate(description)
    if level == "states":
        doc["states"].append(value)
        path = f"states[{len(doc['states']) - 1}]"
    else:
        i = [entry.get("name") for entry in doc[level]].index("None") if level == "events" else 0
        if value is MISSING:
            del doc[level][i][key]
        else:
            doc[level][i][key] = value
        path = f"{level}[{i}].{key}"
    with pytest.raises(io.ParseError) as err:
        io.parse(doc)
    assert err.value.context == path
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", "all", str(bad)]) == 3
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"{path}: must be a name")


def test_each_weight_list_is_parsed_once_without_merging_unequal_entries(tmp_path, capsys):
    doc = io.serialize(validate(A1_description()))
    assert [t["weight"] for t in doc["transitions"][:2]] == [["1"], ["1"]]
    a = io.parse(doc)
    assert {t[3] for t in a.transitions if t[0] == "q0"} == {(Fraction(1),)}
    # (True,) == (1,): a boolean entry must not reuse the list parsed for "1"
    doc["transitions"][1]["weight"] = [True]
    with pytest.raises(io.ParseError) as err:
        io.parse(doc)
    assert err.value.context == "transitions[1].weight[0]"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", "all", str(bad)]) == 3
    assert json.loads(capsys.readouterr().err)["error"].startswith("transitions[1].weight[0]: ")


def _cli_text(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_check_one_property_matches_its_entry_in_check_all(tmp_path, capsys):
    from wadet.cli import EXIT
    from wadet.corpus import random_automaton
    automata = [load_fixture(name).automaton for name in ("A0", "A1", "robot")]
    automata += [random_automaton(seed, k=2) for seed in range(10)]
    path = tmp_path / "doc.json"
    for a in automata:
        path.write_text(io.dumps(io.serialize(a)))
        _, text = _cli_text(capsys, "check", "all", str(path))
        every = json.loads(text)
        for prop, verdict in every["verdicts"].items():
            code, text = _cli_text(capsys, "check", prop.lower(), str(path))
            assert code == EXIT[verdict["status"]]
            assert text == io.dumps({"scale": every["scale"], "verdict": verdict}), (a, prop)


def test_check_one_property_builds_only_what_it_reads(tmp_path, capsys, monkeypatch):
    # no property explores a structure whole; check sd reads no estimate,
    # and check spd and check wd read only part of the robot's detector
    # and observer, each estimate once
    from wadet import estimator, graphutil
    from wadet.estimator import build_detector, build_observer
    from wadet.model import normalize, scale_to_integers
    explored, read = [], []
    explore, steps = graphutil.explore, estimator.successor_steps
    monkeypatch.setattr(estimator, "explore", lambda roots, succ, targets:
                        explored.append(succ.__self__.kind) or explore(roots, succ, targets))

    def counted(a, split):
        fn = steps(a, split)
        return lambda x: read.append(x) or fn(x)

    monkeypatch.setattr(estimator, "successor_steps", counted)
    robot = load_fixture("robot").automaton
    path = tmp_path / "robot.json"
    path.write_text(io.dumps(io.serialize(robot)))
    reads = {}
    for prop, code in (("sd", 1), ("spd", 1), ("wd", 0), ("wpd", 0)):
        assert _cli_text(capsys, "check", prop, str(path))[0] == code
        reads[prop], read[:] = read[:], []
    assert explored == [] and reads["sd"] == []
    prepared = scale_to_integers(normalize(robot))[0]
    detector, observer = build_detector(prepared), build_observer(prepared)
    for prop, est in (("spd", detector), ("wd", observer), ("wpd", observer)):
        assert 0 < len(reads[prop]) == len(set(reads[prop])) <= len(est.states), prop
    assert len(reads["spd"]) < len(detector.states) and len(reads["wd"]) < len(observer.states)


def test_cli_internal_error_exit_code(a1_file, capsys, monkeypatch, tmp_path):
    # a failed invariant or precondition, or a bug, is neither FAILS (1) nor
    # an input error (3)
    for error in (AssertionError, KeyError, ValueError, InternalError):
        def broken(a):
            raise error("broken invariant")
        monkeypatch.setattr("wadet.cli.check_all", broken)
        assert main(["check", "all", a1_file]) == 4, error
        assert "broken invariant" in json.loads(capsys.readouterr().err)["error"]
    # an exhausted budget is UNKNOWN (2), not an internal error: fifteen
    # silent loops of weight (1, 0) outgrow the k > 1 walk search
    path = tmp_path / "loops.json"
    path.write_text(io.dumps(io.serialize(validate({
        "k": 2, "states": ["q", "r"], "initial": {"q": [0, 0]},
        "events": {**{f"u{i}": None for i in range(15)}, "a": "a"},
        "transitions": [("q", f"u{i}", "q", [1, 0]) for i in range(15)]
        + [("q", "a", "r", [0, 0])]}))))
    code, out = run_cli(capsys, "estimate", str(path), "--obs", "(a,0 1)")
    assert code == 2
    assert out["estimate"] is None and out["status"] == "UNKNOWN" and out["notes"]


# -- DOT export -----------------------------------------------------------------


def parse_dot_edges(text):
    edges = []
    for m in re.finditer(r'"([^"]+)" -> "([^"]+)" \[label="([^"]+)"\]', text):
        edges.append((m.group(1), m.group(2), m.group(3)))
    return edges


def test_selfcomp_dot_matches_known_multiset(a1_file, capsys, tmp_path):
    dot_path = tmp_path / "cc.dot"
    code, _ = run_cli(capsys, "selfcomp", a1_file, "--dot", str(dot_path))
    assert code == 0
    edges = parse_dot_edges(dot_path.read_text())
    want = []
    for p in ("q1", "q2"):
        for q in ("q1", "q2"):
            want.append(("q0,q0", f"{p},{q}", "(a,a)"))
            want.append((f"{p},{q}", "q3,q3", "(b,b)"))
    want += [("q3,q3", "q4,q4", "(a,a)"), ("q4,q4", "q4,q4", "(a,a)")]
    assert sorted(edges) == sorted(want)


def test_observer_dot_and_json(a1_file, capsys, tmp_path):
    dot_path = tmp_path / "obs.dot"
    code, out = run_cli(capsys, "observer", a1_file, "--dot", str(dot_path))
    assert code == 0
    assert out["kind"] == "observer" and out["scale"] == 1 and out["exact"]
    cells = {tuple(t["to"]): t["cell"] for t in out["transitions"]
             if t["from"] == ["q1", "q2"]}
    assert cells[("q3",)]["up"] == {"threshold": 1, "period": 1, "residues": [0]}
    text = dot_path.read_text()
    assert "{q1,q2}" in text


def test_export_subcommand(a1_file, capsys):
    code = main(["export", a1_file, "--what", "automaton"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("digraph")
    assert '"q0" -> "q1"' in text


@pytest.mark.parametrize("what", ["selfcomp", "observer", "detector"])
def test_export_prints_the_dot_of_the_structure_command(a1_file, capsys, tmp_path, what):
    dot_path = tmp_path / f"{what}.dot"
    assert main([what, a1_file, "--dot", str(dot_path)]) == 0
    capsys.readouterr()
    assert main(["export", a1_file, "--what", what]) == 0
    text = capsys.readouterr().out
    assert text.startswith("digraph") and text == dot_path.read_text()


# -- golden outputs (schema stability) -------------------------------------------


def golden(name):
    import pathlib
    return json.loads((pathlib.Path(__file__).parent / "data" / name).read_text())


def test_cli_check_all_matches_golden(a1_file, capsys):
    code, out = run_cli(capsys, "check", "all", a1_file)
    assert code == 1
    assert out == golden("check_all_A1.json")


@pytest.mark.parametrize("fixture, argv, code, name", [
    pytest.param("A0", ("observer",), 0, "observer_A0.json", id="observer_A0"),
    pytest.param("A0", ("detector",), 0, "detector_A0.json", id="detector_A0"),
    pytest.param("robot", ("check", "all"), 1, "check_all_robot.json", id="check_all_robot"),
])
def test_cli_observer_matches_golden(capsys, tmp_path, fixture, argv, code, name):
    path = tmp_path / f"{fixture}.json"
    path.write_text(io.dumps(io.serialize(load_fixture(fixture).automaton)))
    assert run_cli(capsys, *argv, str(path)) == (code, golden(name))


def test_cli_estimate_vector_weights(capsys, tmp_path):
    fx = load_fixture("robot")
    path = tmp_path / "robot.json"
    path.write_text(io.dumps(io.serialize(fx.automaton)))
    code, out = run_cli(capsys, "estimate", str(path), "--obs", "(a,0 1 0 0)")
    assert code == 0
    assert out["estimate"] == ["e4p2"]


@pytest.mark.parametrize("weight, silent", [
    pytest.param("10000000", False, id="1e7"),
    pytest.param("1e400", False, id="1e400"),
    pytest.param("10000000", True, id="silent-1e7"),
    pytest.param("100000000", True, id="silent-1e8"),
])
def test_huge_weights_end_to_end(capsys, tmp_path, weight, silent):
    # set operations follow the size of the sets' representations, not the
    # magnitude of the weight: one state with one observable self-loop of
    # that weight, or a silent self-loop of that weight at q with the
    # observable arcs q -a/1-> r and q -a/2-> q (its N-span has period w)
    import time
    from wadet.verify import check_all
    if silent:
        doc = {"format_version": 1, "k": 1, "states": ["q", "r"],
               "initial": [{"state": "q", "weight": ["0"]}],
               "events": [{"name": "u", "label": None}, {"name": "a", "label": "a"}],
               "transitions": [{"from": "q", "event": "u", "to": "q", "weight": [weight]},
                               {"from": "q", "event": "a", "to": "r", "weight": ["1"]},
                               {"from": "q", "event": "a", "to": "q", "weight": ["2"]}]}
    else:
        doc = {"format_version": 1, "k": 1, "states": ["q"],
               "initial": [{"state": "q", "weight": ["0"]}],
               "events": [{"name": "a", "label": "a"}],
               "transitions": [{"from": "q", "event": "a", "to": "q", "weight": [weight]}]}
    start = time.perf_counter()
    result = check_all(io.parse(doc))
    assert time.perf_counter() - start < 2.0
    assert result.statuses() == {"SD": "HOLDS", "SPD": "HOLDS", "WD": "HOLDS", "WPD": "HOLDS"}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "check", "all", str(path))
    assert code == 0
    assert {p: v["status"] for p, v in out["verdicts"].items()} == result.statuses()


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_console_script_entry_point(a1_file, flags):
    import pathlib
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "wadet.cli", "check", "all", a1_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == (pathlib.Path(__file__).parent / "data" / "check_all_A1.json").read_text()


def test_cli_closes_the_file_and_reads_it_as_utf8(tmp_path):
    # under -X dev an unclosed file prints a ResourceWarning, and without
    # UTF-8 mode in the C locale the locale's encoding is ASCII: the
    # document, which names a state "q1é" in UTF-8 (RFC 8259), must still
    # read, and the DOT the CLI writes, to a file or to stdout, is UTF-8
    import os
    import subprocess
    import sys
    desc = json.loads(json.dumps(A1_description()).replace('"q1"', '"q1\\u00e9"'))
    text = json.dumps(io.serialize(validate(desc)), ensure_ascii=False)
    path = tmp_path / "A1.json"
    path.write_bytes(text.encode("utf-8"))
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "wadet.cli",
         "check", "sd", str(path)], capture_output=True, text=True, env=env)
    assert "ResourceWarning" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"]["status"] == "HOLDS"
    out = tmp_path / "out.dot"
    for command in (["export", str(path), "--dot", str(out)],
                    ["observer", str(path), "--dot", str(out)],
                    ["export", str(path)]):
        out.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "wadet.cli",
             *command], capture_output=True, env=env)
        assert proc.returncode == 0, (command, proc.stderr)
        dot = out.read_bytes() if "--dot" in command else proc.stdout
        assert "q1\u00e9" in dot.decode("utf-8"), command
