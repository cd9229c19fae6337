"""The command-line surface: exit codes, documents, determinism."""

import json
import pathlib

import pytest

from helpers import colimit_rungs, discrete_diagram
from sigmacat import io as sio
from sigmacat.cli import run
from sigmacat.errors import ParseError, ValidationError
from sigmacat.fincat import arrow_category, discrete_category
from sigmacat.fixtures import arrow_2cat, diagram_pick0, pseudo_swap
from sigmacat.transforms import CatDiagram, constant_diagram

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(autouse=True)
def no_pure_python_json_encoder(monkeypatch):
    """Every report here, the goldens among them, is written with json's
    pure-Python encoder refused: ``json.dumps`` with ``indent`` takes that
    path, and the reports are written by ``io.dumps`` alone."""
    def refused(*args, **kwargs):
        raise AssertionError("a report went through json's pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refused)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_every_fixture_parses_and_validates(capsys):
    for path in sorted(FIXTURES.glob("*.json")):
        code, out = invoke(capsys, "validate", str(path))
        assert code == 0, path.name
        doc = json.loads(out)
        assert doc["verdict"] == "valid"


def test_round_trip_is_semantically_stable():
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text()
        value = sio.parse_document(text)
        if isinstance(value, CatDiagram):
            again = sio.parse_document(sio.dumps(sio.diagram_to_doc(value)))
            assert again.on_obj == value.on_obj
            assert again.on_1 == value.on_1
            assert again.kind == value.kind


def test_reports_are_byte_identical(capsys):
    commands = [
        ("validate", str(FIXTURES / "arrow_category.json")),
        ("flat", str(FIXTURES / "representable_0.json")),
        ("elements", str(FIXTURES / "diagram_pick0.json")),
        ("filtered", str(FIXTURES / "arrow_2cat_marked.json")),
        ("colimit", str(FIXTURES / "diagram_pick0.json"), "--sigma", "f"),
    ]
    for argv in commands:
        _, first = invoke(capsys, *argv)
        _, second = invoke(capsys, *argv)
        assert first == second and first


def test_flat_command_verdicts(capsys):
    code, out = invoke(capsys, "flat", str(FIXTURES / "representable_0.json"))
    assert code == 0
    assert json.loads(out)["verdict"] == "flat"
    code, out = invoke(capsys, "flat", str(FIXTURES / "const_discrete_pair.json"))
    assert code == 0
    assert json.loads(out)["verdict"] == "not-flat"
    code, out = invoke(capsys, "flat", str(FIXTURES / "pseudo_swap.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "flat"
    assert "strictified" in doc["route"]


def test_undecided_colimit_exits_three(capsys):
    argv = ["colimit", str(FIXTURES / "const_terminal_parallel.json"),
            "--sigma", "u,v", "--cap", "8"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"certificate": [], "command": "colimit",
                                        "status": "undecided-at-cap"}
    # the growth curve goes to stderr only
    assert captured.err == ("undecided at cap 8; live cosets per word length: "
                            "2 4 4 4 4 4 4 4 4\n")


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("sigma,golden", [
    (["--sigma", "f"], "colimit_pick0_weight_on_op_arrow_sigma_f.json"),
    ([], "colimit_pick0_weight_on_op_arrow.json"),
])
def test_weighted_colimit_reports(capsys, sigma, golden):
    """The full report of ``colimit --weight``, byte for byte."""
    code, out = invoke(capsys, "colimit", str(FIXTURES / "diagram_pick0.json"),
                       "--weight", str(FIXTURES / "weight_on_op_arrow.json"), *sigma)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()



@pytest.mark.parametrize("fixture,flags", [
    ("diagram_pick0", []), ("diagram_pick0", ["--pseudo"]),
    ("diagram_pick0", ["--sigma", "f"]), ("repr_diamond_a", []),
    ("weight_on_op_arrow", ["--sigma", "f"]), ("pseudo_swap", ["--pseudo"]),
    ("pseudo_swap", ["--pseudo", "--sigma", "f"]),
])
def test_elements_reports(capsys, fixture, flags):
    """The full report of ``elements``, byte for byte."""
    code, out = invoke(capsys, "elements", str(FIXTURES / f"{fixture}.json"), *flags)
    assert code == 0
    suffix = "".join(f"_{flag.lstrip('-')}" for flag in flags)
    assert out == (GOLDEN / f"elements_{fixture}{suffix}.json").read_text()

# The Hom categories and weighted limits of the benchmark's CLI corpus, in
# every flavour, and its Yoneda comparisons: reports captured from the
# enumerating implementation that the conical reduction replaced.
HOM_PAIRS = [("representable_0", "diagram_pick0"),
             ("representable_0", "diagram_collapse"),
             ("const_terminal", "representable_0")]
FLAVOR_FLAGS = {"s": ["--flavor", "s"], "p": ["--flavor", "p"],
                "lax": ["--flavor", "lax"],
                "sigma_f": ["--flavor", "sigma", "--sigma", "f"]}


@pytest.mark.parametrize("flavor", sorted(FLAVOR_FLAGS))
@pytest.mark.parametrize("source,target", HOM_PAIRS)
@pytest.mark.parametrize("command", ["hom", "limit"])
def test_hom_and_limit_reports(capsys, command, source, target, flavor):
    """The full report of ``hom`` and ``limit``, byte for byte."""
    code, out = invoke(capsys, command, str(FIXTURES / f"{source}.json"),
                       str(FIXTURES / f"{target}.json"), *FLAVOR_FLAGS[flavor])
    assert code == 0
    assert out == (GOLDEN / f"{command}_{source}_{target}_{flavor}.json").read_text()


PSEUDO_HOM_PAIRS = [("pseudo_z2", "pseudo_z2"), ("pseudo_swap", "pseudo_not_flat"),
                    ("pseudo_not_flat", "pseudo_z2"), ("representable_0", "pseudo_swap")]


@pytest.mark.parametrize("flavor", sorted(FLAVOR_FLAGS))
@pytest.mark.parametrize("source,target", PSEUDO_HOM_PAIRS)
@pytest.mark.parametrize("command", ["hom", "limit"])
def test_pseudo_hom_and_limit_reports(capsys, command, source, target, flavor):
    """``hom`` and ``limit`` with a pseudo weight or diagram, byte for byte:
    answered in the pseudo, lax and σ flavours, refused in the strict one."""
    code, out = invoke(capsys, command, str(FIXTURES / f"{source}.json"),
                       str(FIXTURES / f"{target}.json"), *FLAVOR_FLAGS[flavor])
    assert code == (2 if flavor == "s" else 0)
    assert out == (GOLDEN / f"{command}_{source}_{target}_{flavor}.json").read_text()


YONEDA_CASES = [
    ("arrow_2cat", "0", "representable_0"), ("arrow_2cat", "1", "diagram_pick0"),
    ("arrow_2cat", "0", "diagram_collapse"), ("diamond_2cat", "a", "repr_diamond_a"),
    ("diamond_2cat", "bot", "representable_diamond_top")]
PSEUDO_YONEDA_CASES = [("arrow_2cat", obj, against) for obj in ("0", "1")
                       for against in ("pseudo_z2", "pseudo_swap", "pseudo_not_flat")]


@pytest.mark.parametrize("base,obj,against", YONEDA_CASES + PSEUDO_YONEDA_CASES)
def test_yoneda_reports(capsys, base, obj, against):
    """The full report of ``yoneda``, byte for byte; against a pseudo
    diagram the verdict is true with an empty witness."""
    code, out = invoke(capsys, "yoneda", str(FIXTURES / f"{base}.json"),
                       "--object", obj, "--against", str(FIXTURES / f"{against}.json"))
    assert code == 0
    assert out == (GOLDEN / f"yoneda_{against}_{obj}.json").read_text()


@pytest.mark.parametrize("diagram,weight,detail", [
    ("diagram_pick0", "arrow_2cat", "--weight expects a diagram document"),
    ("pseudo_swap", "weight_on_op_arrow",
     "weighted colimits expect a strict weight and diagram"),
    ("pseudo_z2", "weight_on_op_arrow",
     "weighted colimits expect a strict weight and diagram"),
    ("diagram_pick0", "pseudo_swap",
     "weighted colimits expect a strict weight and diagram"),
])
def test_weighted_colimit_rejects_documents_of_the_wrong_kind(capsys, diagram, weight,
                                                              detail):
    """A weight that is not a diagram, and a pseudo diagram or weight, are
    invalid input, not a crash or an answer."""
    code, out = invoke(capsys, "colimit", str(FIXTURES / f"{diagram}.json"),
                       "--weight", str(FIXTURES / f"{weight}.json"))
    assert code == 2
    assert json.loads(out) == {"command": "colimit", "error": "invalid-input",
                               "detail": detail}


@pytest.mark.parametrize("fixture", ["representable_diamond_top", "repr_diamond_a"])
def test_exact_reports(capsys, fixture):
    """The full report of ``exact`` against the bilimit cones found in the
    diamond, byte for byte."""
    code, out = invoke(capsys, "exact", str(FIXTURES / f"{fixture}.json"))
    assert code == 0
    assert out == (GOLDEN / f"exact_{fixture}.json").read_text()


@pytest.mark.parametrize("fixture", ["pseudo_z2", "pseudo_swap", "pseudo_not_flat"])
def test_exact_refuses_a_pseudo_diagram(capsys, fixture):
    """Left exactness is decided for strict diagrams; a pseudo diagram is
    invalid input, not a crash."""
    code, out = invoke(capsys, "exact", str(FIXTURES / f"{fixture}.json"))
    assert code == 2
    assert json.loads(out) == {"command": "exact", "error": "invalid-input",
                               "detail": "left exactness expects a strict diagram"}


def test_small_cap_is_honest(capsys):
    code, out = invoke(capsys, "colimit",
                       str(FIXTURES / "const_terminal_parallel.json"),
                       "--sigma", "u,v", "--cap", "2")
    assert code == 3


def test_classifier_at_the_cap_exits_three(tmp_path, capsys):
    """A localization that closes at the cap while its classifier does not
    is undecided: exit 3, never a pass and never a crash."""
    P, _ = colimit_rungs()["chain3/arrow/ids"]
    path = tmp_path / "chain3_arrow.json"
    path.write_text(sio.dumps(sio.diagram_to_doc(P)))
    code, out = invoke(capsys, "colimit", str(path), "--cap", "1")
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "undecided"
    assert doc["detail"].startswith("presentation still growing at cap 1")


def test_broken_document_exits_two(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"objects": ["x"]}')
    code, out = invoke(capsys, "validate", str(bad))
    assert code == 2
    assert json.loads(out)["error"] == "invalid-input"
    worse = tmp_path / "worse.json"
    worse.write_text("{not json")
    code, _ = invoke(capsys, "validate", str(worse))
    assert code == 2


def test_semantically_broken_category_exits_two(tmp_path, capsys):
    c = arrow_category()
    doc = sio.fincat_to_doc(c)
    doc["compose"] = [e for e in doc["compose"]
                      if not (e["g"] == "f" and e["f"] == "id_0")]
    bad = tmp_path / "bad_cat.json"
    bad.write_text(sio.dumps(doc))
    code, out = invoke(capsys, "validate", str(bad))
    assert code == 2


def test_unknown_keys_rejected(tmp_path, capsys):
    doc = sio.fincat_to_doc(arrow_category())
    doc["extra"] = 1
    p = tmp_path / "extra.json"
    p.write_text(sio.dumps(doc))
    code, _ = invoke(capsys, "validate", str(p))
    assert code == 2


def _renamed_fixture(tmp_path, stem: str) -> str:
    """A copy of a fixture with every identifier ``1`` renamed ``p,q``."""
    def rename(v):
        if isinstance(v, dict):
            return {rename(k): rename(x) for k, x in v.items()}
        if isinstance(v, list):
            return [rename(x) for x in v]
        return "p,q" if v == "1" else v

    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(rename(json.loads((FIXTURES / f"{stem}.json").read_text()))))
    return str(path)


@pytest.mark.parametrize("argv,summary", [
    (["strictify", "pseudo_swap"], "strictified diagram computed"),
    (["flat", "pseudo_swap"], "verdict: flat"),
    (["colimit", "diagram_pick0", "--weight", "weight_on_op_arrow"],
     "colimit has 5 objects; certificate passed"),
])
def test_delimiters_in_identifiers_change_no_answer(capsys, tmp_path, argv, summary):
    """An identifier holding the comma of pair names is read back from the
    tables that minted its names, never parsed out of them: the renamed
    fixtures give the plain fixtures' answers."""
    command, *rest = argv
    for place in (lambda stem: str(FIXTURES / f"{stem}.json"),
                  lambda stem: _renamed_fixture(tmp_path, stem)):
        args = [a if a.startswith("--") else place(a) for a in rest]
        assert run([command, *args]) == 0
        assert capsys.readouterr().err == summary + "\n"


def test_colliding_element_names_exit_two(capsys, tmp_path):
    path = tmp_path / "collide.json"
    path.write_text(sio.dumps(sio.diagram_to_doc(
        discrete_diagram({"c": ["a,b"], "b,c": ["a"]}))))
    code, out = invoke(capsys, "flat", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "invalid-input"


def test_exact_on_the_empty_constant_names_the_biterminal_shape(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(sio.dumps(sio.diagram_to_doc(
        constant_diagram(arrow_2cat(), discrete_category([])))))
    code, out = invoke(capsys, "exact", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is False and not doc["no_evidence"]
    assert [e["shape"] for e in doc["per_shape"] if not e["ok"]] == ["biterminal"]
    code, out = invoke(capsys, "flat", str(path))
    assert json.loads(out)["verdict"] == "not-flat"


def test_whitespace_identifier_rejected():
    doc = sio.fincat_to_doc(arrow_category())
    doc["objects"] = ["0", "bad name"]
    with pytest.raises(ParseError):
        sio.fincat_from_doc(doc)


def test_hom_and_limit_commands(capsys):
    code, out = invoke(capsys, "hom", str(FIXTURES / "const_terminal.json"),
                       str(FIXTURES / "diagram_pick0.json"), "--flavor", "lax")
    assert code == 0
    assert json.loads(out)["objects"] == 2
    code, out = invoke(capsys, "limit", str(FIXTURES / "const_terminal.json"),
                       str(FIXTURES / "diagram_pick0.json"), "--flavor", "lax")
    assert code == 0


@pytest.mark.parametrize("command,documents,flags,detail", [
    ("limit", ("const_terminal", "representable_diamond_top"), (),
     "the diagrams live on different bases"),
    ("hom", ("const_terminal", "representable_diamond_top"), ("--flavor", "s"),
     "the diagrams live on different bases"),
    ("limit", ("arrow_2cat", "const_terminal"), (),
     "limit expects two diagram documents"),
])
def test_limit_and_hom_reject_mismatched_documents(capsys, command, documents,
                                                   flags, detail):
    paths = [str(FIXTURES / f"{name}.json") for name in documents]
    code, out = invoke(capsys, command, *paths, *flags)
    assert code == 2
    assert json.loads(out) == {"command": command, "error": "invalid-input",
                               "detail": detail}


def test_elements_command_with_sigma(capsys):
    code, out = invoke(capsys, "elements", str(FIXTURES / "diagram_pick0.json"),
                       "--sigma", "f")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["cart_sigma"]) <= set(doc["cart"])
    code, out = invoke(capsys, "elements", str(FIXTURES / "pseudo_z2.json"),
                       "--pseudo")
    assert code == 0


def test_filtered_and_cofinal_commands(capsys, tmp_path):
    code, out = invoke(capsys, "filtered",
                       str(FIXTURES / "arrow_2cat_marked.json"))
    assert code == 0 and json.loads(out)["verdict"] is True
    code, out = invoke(capsys, "filtered",
                       str(FIXTURES / "arrow_2cat_marked.json"), "--co")
    assert code == 0
    code, out = invoke(capsys, "cofinal", _inclusion_document(tmp_path), "--sigma", "",
                       "--sigma-prime", "f")
    assert code == 0 and json.loads(out)["verdict"] is True


def _inclusion_document(tmp_path) -> str:
    """A cofinal inclusion document: the terminal 2-category picking 1 in
    the walking arrow."""
    from sigmacat.transforms import TwoFunctor
    from sigmacat.two_cat import terminal_2cat
    T = TwoFunctor(terminal_2cat(), arrow_2cat(), {"*": "1"}, {"id_*": "id_1"},
                   {"i2_id_*": "i2_id_1"})
    p = tmp_path / "incl.json"
    p.write_text(sio.dumps(sio.twofunctor_to_doc(T)))
    return str(p)


# The witness lists of ``filtered``, ``cofinal`` and ``flat``, captured from
# the four separate coequalizer scans that one shared scan replaced.
FILTERED_SIGMA = {"arrow_2cat": "f", "arrow_2cat_marked": "f",
                  "diamond_2cat": "bot<a,bot<b,a<top,b<top,bot<top"}


@pytest.mark.parametrize("co", [False, True])
@pytest.mark.parametrize("marked", [False, True])
@pytest.mark.parametrize("stem", sorted(FILTERED_SIGMA))
def test_filtered_reports(capsys, stem, marked, co):
    """The full report of ``filtered``, byte for byte."""
    code, out = invoke(capsys, "filtered", str(FIXTURES / f"{stem}.json"),
                       *(["--sigma", FILTERED_SIGMA[stem]] if marked else []),
                       *(["--co"] if co else []))
    assert code == 0
    name = f"filtered_{stem}" + ("_sigma" if marked else "") + ("_co" if co else "")
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_cofinal_report(capsys, tmp_path):
    """The full report of ``cofinal`` on the inclusion, byte for byte."""
    code, out = invoke(capsys, "cofinal", _inclusion_document(tmp_path), "--sigma", "",
                       "--sigma-prime", "f")
    assert code == 0
    assert out == (GOLDEN / "cofinal_inclusion.json").read_text()


def _flat_runs():
    """(stem, --pseudo) for every diagram fixture; strict ones twice."""
    for path in sorted(FIXTURES.glob("*.json")):
        value = sio.parse_document(path.read_text())
        if isinstance(value, CatDiagram):
            yield path.stem, False
            if not value.is_pseudo:
                yield path.stem, True


@pytest.mark.parametrize("stem,pseudo", list(_flat_runs()))
def test_flat_reports(capsys, stem, pseudo):
    """The full report of ``flat``, byte for byte; strict diagrams also
    read as pseudofunctors."""
    code, out = invoke(capsys, "flat", str(FIXTURES / f"{stem}.json"),
                       *(["--pseudo"] if pseudo else []))
    assert code == 0
    name = f"flat_{stem}" + ("_pseudo" if pseudo else "")
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_exact_command(capsys):
    code, out = invoke(capsys, "exact",
                       str(FIXTURES / "repr_diamond_a.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True and len(doc["per_shape"]) > 0


def test_bilimit_command(capsys, tmp_path):
    code, out = invoke(capsys, "bilimit", "--shape", "biproduct",
                       str(FIXTURES / "arrow_category.json"),
                       str(FIXTURES / "iso_pair.json"))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["category"]["objects"]) == 4
    # biinserter of the identity against the collapse-to-1 endofunctor
    from sigmacat.fincat import Functor, identity_functor
    two = arrow_category()
    const1 = Functor(two, two, {"0": "1", "1": "1"},
                     {a: "id_1" for a in two.arrows})
    f1 = tmp_path / "idf.json"
    f2 = tmp_path / "const1.json"
    f1.write_text(sio.dumps(sio.functor_to_doc(identity_functor(two))))
    f2.write_text(sio.dumps(sio.functor_to_doc(const1)))
    code, out = invoke(capsys, "bilimit", "--shape", "biinserter",
                       str(f1), str(f2))
    assert code == 0
    assert len(json.loads(out)["category"]["objects"]) == 2


def _bilimit_documents(tmp_path) -> dict:
    """The documents the ``bilimit`` reports below read: the identity and the
    collapse-to-1 endofunctor of the walking arrow, and the transformation
    between them whose component at 0 is the arrow."""
    from sigmacat.fincat import Functor, NatTransf, identity_functor
    two = arrow_category()
    idf = identity_functor(two)
    const1 = Functor(two, two, {"0": "1", "1": "1"},
                     {a: "id_1" for a in two.arrows})
    docs = {"id_functor": sio.functor_to_doc(idf),
            "const1_functor": sio.functor_to_doc(const1),
            "step_transf": sio.nat_transf_to_doc(
                NatTransf(idf, const1, {"0": "f", "1": "id_1"}))}
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(sio.dumps(doc))
    return {name: str(path) for name, path in paths.items()}


BILIMIT_INPUTS = {
    "biproduct": (str(FIXTURES / "arrow_category.json"),
                  str(FIXTURES / "iso_pair.json")),
    "biinserter": ("id_functor", "const1_functor"),
    "biequalizer": ("id_functor", "const1_functor"),
    "biequifier": ("step_transf", "step_transf"),
}


@pytest.mark.parametrize("shape", sorted(BILIMIT_INPUTS))
def test_bilimit_reports(capsys, tmp_path, shape):
    """The full report of each ``bilimit`` shape, byte for byte."""
    docs = _bilimit_documents(tmp_path)
    args = [docs.get(a, a) for a in BILIMIT_INPUTS[shape]]
    code, out = invoke(capsys, "bilimit", "--shape", shape, *args)
    assert code == 0
    assert out == (GOLDEN / f"bilimit_{shape}.json").read_text()


@pytest.mark.parametrize("shape,args,detail", [
    ("biproduct", ("id_functor", "const1_functor"),
     "biproduct expects two category documents"),
    ("biinserter", ("arrow_category", "iso_pair"),
     "biinserter expects two functor documents"),
    ("biequalizer", ("arrow_category", "iso_pair"),
     "biequalizer expects two functor documents"),
    ("biequifier", ("id_functor", "const1_functor"),
     "biequifier expects two transformation documents"),
])
def test_bilimit_rejects_documents_of_the_wrong_kind(capsys, tmp_path, shape,
                                                     args, detail):
    docs = _bilimit_documents(tmp_path)
    paths = [docs.get(a) or str(FIXTURES / f"{a}.json") for a in args]
    code, out = invoke(capsys, "bilimit", "--shape", shape, *paths)
    assert code == 2
    assert json.loads(out) == {"command": "bilimit", "error": "invalid-input",
                               "detail": detail}


def test_strictify_command(capsys, tmp_path):
    out_path = tmp_path / "strict.json"
    code, _ = invoke(capsys, "strictify", str(FIXTURES / "pseudo_z2.json"),
                     "-o", str(out_path))
    assert code == 0
    code, out = invoke(capsys, "validate", str(out_path))
    assert code == 0


@pytest.mark.parametrize("fixture", ["pseudo_z2", "pseudo_swap", "pseudo_not_flat",
                                     "diagram_pick0"])
def test_strictify_reports(capsys, fixture):
    """The full report of ``strictify`` without ``-o``, byte for byte."""
    code, out = invoke(capsys, "strictify", str(FIXTURES / f"{fixture}.json"))
    assert code == 0
    assert out == (GOLDEN / f"strictify_{fixture}.json").read_text()


def test_yoneda_command(capsys):
    code, out = invoke(capsys, "yoneda", str(FIXTURES / "arrow_2cat.json"),
                       "--object", "0", "--against",
                       str(FIXTURES / "representable_0.json"))
    assert code == 0 and json.loads(out)["verdict"] is True


def test_budget_flag_limits_work(capsys):
    code, out = invoke(capsys, "--budget", "5", "hom",
                       str(FIXTURES / "const_terminal.json"),
                       str(FIXTURES / "diagram_pick0.json"), "--flavor", "lax")
    assert code == 2
    assert json.loads(out)["error"] == "invalid-input"


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SIGMACAT_BUDGET", "5")
    code, out = invoke(capsys, "hom", str(FIXTURES / "const_terminal.json"),
                       str(FIXTURES / "diagram_pick0.json"), "--flavor", "lax")
    assert code == 2


def test_the_parser_is_built_on_the_first_run_only(capsys, monkeypatch):
    """``run`` reuses the argument parser it built on its first call: a
    second call constructs no ``ArgumentParser``, not even a subparser."""
    import argparse
    from sigmacat import cli
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    argv = ["validate", str(FIXTURES / "arrow_category.json")]
    assert invoke(capsys, *argv)[0] == 0
    first = len(built)
    assert first > 1
    assert invoke(capsys, *argv)[0] == 0
    assert len(built) == first


def test_parser_reuse_leaks_no_state_between_runs(capsys, monkeypatch):
    """In one process, usage errors and budget refusals, by flag and by
    environment, interleaved with golden commands: every golden report is
    unchanged, and every refusal reads the same on each pass."""
    fx = {stem: str(FIXTURES / f"{stem}.json") for stem in (
        "const_terminal", "diagram_pick0", "repr_diamond_a", "representable_0",
        "weight_on_op_arrow", "arrow_2cat")}
    goldens = [
        (["exact", fx["repr_diamond_a"]], "exact_repr_diamond_a.json"),
        (["hom", fx["representable_0"], fx["diagram_pick0"], "--flavor", "sigma",
          "--sigma", "f"], "hom_representable_0_diagram_pick0_sigma_f.json"),
        (["limit", fx["const_terminal"], fx["representable_0"], "--flavor", "lax"],
         "limit_const_terminal_representable_0_lax.json"),
        (["colimit", fx["diagram_pick0"], "--weight", fx["weight_on_op_arrow"],
          "--sigma", "f"], "colimit_pick0_weight_on_op_arrow_sigma_f.json"),
        (["yoneda", fx["arrow_2cat"], "--object", "0", "--against",
          fx["representable_0"]], "yoneda_representable_0_0.json"),
    ]
    lax_hom = ["hom", fx["const_terminal"], fx["diagram_pick0"], "--flavor", "lax"]
    refusal = ('{\n  "command": "hom",\n  "detail": "enumeration budget of 5 '
               'candidates exceeded",\n  "error": "invalid-input"\n}\n')

    def refusals():
        got = [(run(["limit", fx["const_terminal"], fx["representable_0"],
                     "--flavor", "x"]), capsys.readouterr())]
        got.append((run(["--budget", "5", *lax_hom]), capsys.readouterr()))
        monkeypatch.setenv("SIGMACAT_BUDGET", "5")
        got.append((run(lax_hom), capsys.readouterr()))
        monkeypatch.delenv("SIGMACAT_BUDGET")
        return [(code, out.out, out.err) for code, out in got]

    seen = []
    for _ in range(2):
        for argv, golden in goldens:
            assert invoke(capsys, *argv) == (0, (GOLDEN / golden).read_text())
            seen.append(refusals())
        code, out = invoke(capsys, *lax_hom)
        assert code == 0 and json.loads(out)["objects"] == 2
    usage, by_flag, by_env = seen[0]
    report = json.loads(usage[1])
    assert usage[0] == 2 and "invalid choice: 'x'" in usage[2]
    assert report == {"command": "limit", "error": "usage", "detail": report["detail"]}
    assert report["detail"].startswith("argument --flavor: invalid choice: 'x'")
    assert by_flag[:2] == by_env[:2] == (2, refusal)
    assert all(got == seen[0] for got in seen)


def _arrow_named(tmp_path, name: str) -> str:
    """The constant walking arrow over a walking arrow whose arrow is
    called ``name``, written as a document."""
    from sigmacat.fincat import mk_fincat
    from sigmacat.transforms import constant_diagram
    from sigmacat.two_cat import two_cat_from_cat
    base = mk_fincat(("0", "1"), {"id_0": ("0", "0"), "id_1": ("1", "1"), name: ("0", "1")},
                     {"0": "id_0", "1": "id_1"},
                     {("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1",
                      (name, "id_0"): name, ("id_1", name): name})
    path = tmp_path / f"arrow_{name}.json"
    path.write_text(sio.dumps(sio.diagram_to_doc(
        constant_diagram(two_cat_from_cat(base), arrow_category()))))
    return str(path)


@pytest.mark.parametrize("command", [["colimit"], ["elements"],
                                     ["hom", "twice", "--flavor", "sigma"]])
def test_sigma_marks_a_one_cell_whose_name_holds_a_comma(capsys, tmp_path, command):
    """``--sigma f,g`` marks the 1-cell called ``f,g``: the report is that
    of ``--sigma f`` on the same diagram with the arrow called ``f``, and
    differs from the report with nothing marked."""
    def report(name, *sigma):
        doc = _arrow_named(tmp_path, name)
        argv = [doc if a == "twice" else a for a in command]
        code, out = invoke(capsys, *argv, doc, *sigma)
        assert code == 0
        return out.replace(name, "f")

    marked = report("f", "--sigma", "f")
    assert report("f,g", "--sigma", "f,g") == marked
    assert report("f,g", "--sigma", "f,g,") == marked
    assert report("f,g") != marked


@pytest.mark.parametrize("name,sigma,detail", [
    ("f", "f,g", "g is not a 1-cell of the parent"),
    ("f,g", "f,g,h", "h is not a 1-cell of the parent"),
    ("f,g", "g,f", "f is not a 1-cell of the parent"),
    ("f,g", "h,g", "g is not a 1-cell of the parent"),
])
def test_sigma_names_that_name_no_one_cell_are_refused(capsys, tmp_path, name, sigma,
                                                        detail):
    """Pieces that start no 1-cell's name are passed on as they are, and
    the first unknown name in sorted order is reported, whatever the
    hash seed."""
    code, out = invoke(capsys, "colimit", _arrow_named(tmp_path, name), "--sigma", sigma)
    assert code == 2
    assert json.loads(out) == {"command": "colimit", "error": "invalid-input",
                               "detail": f"not a wide subcategory: {detail}"}


@pytest.mark.parametrize("argv,command,detail", [
    (["limit", "w.json", "d.json", "--flavor", "x"], "limit",
     "argument --flavor: invalid choice: 'x'"),
    (["flat"], "flat", "the following arguments are required: file"),
    (["exact", "d.json", "--cones", "generated"], None,
     "unrecognized arguments: --cones generated"),
    (["--budget", "many", "flat", "d.json"], None,
     "argument --budget: invalid int value: 'many'"),
    ([], None, "the following arguments are required: command"),
])
def test_usage_errors_are_reported_as_json(capsys, argv, command, detail):
    """A usage error exits 2 with a JSON report on stdout, naming the
    subcommand it arose in, if any, with argparse's message as the detail;
    argparse's usage text stays on stderr."""
    code = run(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2 and captured.err.startswith("usage: sigmacat")
    assert report == {"command": command, "error": "usage", "detail": report["detail"]}
    assert report["detail"].startswith(detail)


def test_help_is_unchanged(capsys):
    assert run(["exact", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: sigmacat exact [-h] file\n")
