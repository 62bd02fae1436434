import json

import pytest

from entinv.explain import explain_three_qubit, render_explain_text
from entinv.fields import GF, QQ
from entinv.invariants import signature
from entinv.tables import ClassificationGapError, classify
from entinv.tensors import ArityError, Shape, Tensor, from_terms
from elements import parse

S222 = Shape((2, 2, 2))


def test_product_state_walkthrough():
    data = explain_three_qubit(from_terms(S222, [(1, 1, 1)]))
    assert data["signature"] == "(1,1,1;3,3,3;4)"
    assert data["case"] == "2.2"
    assert data["class"] == "C1"
    dims = [s["dim"] for s in data["systems"]]
    assert dims == [1, 1, 1, 3, 3, 3]
    assert data["triple_system"]["dim"] == 4
    assert len(data["triple_system"]["equations"]) == 12


def test_zero_state():
    data = explain_three_qubit(from_terms(S222, [], field=QQ))
    assert data["case"] == "1"
    assert data["class"] == "C0"
    assert [s["dim"] for s in data["systems"]] == [2, 2, 2, 4, 4, 4]
    assert data["triple_system"]["dim"] == 8
    assert all(eq == "0 = 0" for s in data["systems"] for eq in s["equations"])


def test_ghz():
    data = explain_three_qubit(from_terms(S222, [(1, 1, 1), (2, 2, 2)]))
    assert data["case"] == "3.2"
    assert data["class"] == "C6"
    assert [s["dim"] for s in data["systems"]] == [0, 0, 0, 2, 2, 2]
    assert data["triple_system"]["dim"] == 0


def test_minus_ghz_prints_bare_minus_signs():
    data = explain_three_qubit(from_terms(S222, [(1, 1, 1), (2, 2, 2)]).scale(-1))
    assert data["systems"][0]["equations"] == ["-w1 = 0", "0 = 0", "0 = 0", "-w2 = 0"]
    assert (data["class"], data["case"]) == ("C6", "3.2")


def test_case_23_labels():
    for terms, case_class in [
        ([(1, 1, 1), (2, 2, 1)], "C2"),
        ([(1, 1, 1), (2, 1, 2)], "C3"),
        ([(1, 1, 1), (1, 2, 2)], "C4"),
    ]:
        v = from_terms(S222, terms)
        data = explain_three_qubit(v)
        assert data["case"] == "2.3"
        assert data["class"] == case_class
        # the kernels follow the signature's order; unequal dims make the order visible
        kernels = [s["kernel"] for s in data["systems"]]
        assert kernels == ["K1", "K2", "K3", "K12", "K13", "K23"]
        sig = signature(v)
        dims = [s["dim"] for s in data["systems"]]
        assert dims == list(sig.singles + sig.pairs)
        assert len(set(dims)) > 1


def test_equations_substitute_coefficients():
    v = from_terms(S222, [(1, 1, 1), (2, 2, 2)])
    data = explain_three_qubit(v)
    k1 = data["systems"][0]
    # K1 rows are indexed by (j,k); the (1,1) row reads v111*w1 + v211*w2 = 0
    assert k1["equations"][0] == "w1 = 0"
    assert k1["equations"][3] == "w2 = 0"
    scaled = explain_three_qubit(v.scale(parse(QQ, "3/2")))
    assert scaled["systems"][0]["equations"][0] == "3/2*w1 = 0"


def test_non_222_rejected():
    with pytest.raises(ArityError):
        explain_three_qubit(from_terms(Shape((2, 2, 3)), [], field=QQ))
    with pytest.raises(ArityError):
        explain_three_qubit(from_terms(Shape((2, 2)), [], field=QQ))


def test_render_text_is_complete():
    text = render_explain_text(explain_three_qubit(from_terms(S222, [(1, 1, 1)])))
    for fragment in ("dim K1 = 1", "dim K123 = 4", "case analysis branch: 2.2",
                     "class: C1", "v111=1"):
        assert fragment in text


def test_structured_output_is_json_safe():
    data = explain_three_qubit(from_terms(S222, [(1, 1, 1), (1, 2, 2), (2, 1, 2)]))
    json.dumps(data)
    assert data["class"] == "C5"
    assert data["case"] == "3.1"


@pytest.mark.parametrize("field,gaps", [(QQ, 0), (GF(2), 54)], ids=["rational", "gf(2)"])
def test_class_agrees_with_classify_on_binary_states(field, gaps):
    # exactly the states classify reports as gaps come out unmatched
    unmatched = 0
    for mask in range(256):
        v = Tensor(field, S222, [field.coerce(mask >> (7 - i) & 1) for i in range(8)])
        data = explain_three_qubit(v)
        try:
            label = classify(v)
        except ClassificationGapError:
            unmatched += 1
            assert (data["case"], data["class"]) == ("unmatched", None)
            continue
        assert data["class"] == label
        assert data["case"] != "unmatched"
    assert unmatched == gaps
