"""Step-by-step kernel report for three-qubit states.

Given a (2,2,2) state, instantiate all six flattening constraint systems
and the 12-row triple-intersection system with the state's coefficients
substituted in, report every kernel dimension, and name the state's class
in the (2,2,2) table and its branch of the three-qubit case analysis.
"""

from __future__ import annotations

from itertools import product

from .invariants import KERNELS, triple_constraint_matrix
from .tables import ClassificationGapError, classify_full
from .tensors import ArityError, Tensor, flatten


# branch of the three-qubit case analysis that each (2,2,2) class falls in
_CASE_OF = {"C0": "1", "C1": "2.2", "C2": "2.3", "C3": "2.3", "C4": "2.3", "C5": "3.1", "C6": "3.2"}


def _term(field, coeff, var: str) -> str:
    s = field.format(coeff)
    if s == "1":
        return var
    if s == "-1":
        return f"-{var}"
    if any(ch in s[1:] for ch in "+-"):
        s = f"({s})"
    return f"{s}*{var}"


def _equation(field, row, variables) -> str:
    parts = []
    for coeff, var in zip(row, variables):
        if coeff:
            parts.append(_term(field, coeff, var))
    if not parts:
        return "0 = 0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out + " = 0"


def _equations(m, variables) -> list[str]:
    """One equation per row of the matrix m, on the unknowns `variables`."""
    entries, c = m.entries, m.cols
    return [_equation(m.field, entries[c * i : c * (i + 1)], variables) for i in range(m.rows)]


def _variables(positions: tuple[int, ...]) -> list[str]:
    # for (2,2,2) every factor has dimension 2
    names = []
    for combo in product((1, 2), repeat=len(positions)):
        names.append("w" + "".join(str(j) for j in combo))
    return names


def explain_three_qubit(v: Tensor) -> dict:
    """Structured kernel walkthrough of a (2,2,2) state."""
    if v.shape.dims != (2, 2, 2):
        raise ArityError(f"the walkthrough covers (2,2,2) states only, got {v.shape.dims}")
    # a gap (possible over small prime fields) is unmatched; a rank fault is raised
    try:
        label, sig = classify_full(v)
    except ClassificationGapError as exc:
        label, sig = None, exc.signature

    coeff_names = []
    for index, c in zip(v.shape.indices(), v.coeffs):
        if c:
            name = "v" + "".join(str(i + 1) for i in index)
            coeff_names.append(f"{name}={v.field.format(c)}")

    systems = []
    # the constraint system on w in the row-side space of a kernel is the
    # complementary flattening
    for rows, cols, dim in zip(KERNELS, KERNELS[::-1], sig.singles + sig.pairs):
        variables = _variables(rows)
        equations = _equations(flatten(v, cols), variables)
        systems.append(
            {
                "kernel": "K" + "".join(map(str, rows)),
                "space": "(x)".join(f"V{i}" for i in rows),
                "variables": variables,
                "equations": equations,
                "dim": dim,
            }
        )

    triple_equations = _equations(triple_constraint_matrix(v), _variables((1, 2, 3)))

    return {
        "field": v.field.descriptor,
        "dims": list(v.shape.dims),
        "coefficients": coeff_names,
        "systems": systems,
        "triple_system": {"equations": triple_equations, "dim": sig.triple},
        "signature": str(sig),
        "case": _CASE_OF.get(label, "unmatched"),
        "class": label,
    }


def render_explain_text(data: dict) -> str:
    lines = []
    lines.append(f"three-qubit kernel walkthrough (field: {data['field']})")
    coeffs = ", ".join(data["coefficients"]) if data["coefficients"] else "all zero"
    lines.append(f"nonzero coefficients: {coeffs}")
    lines.append("")
    for system in data["systems"]:
        lines.append(f"{system['kernel']}: constraints on w in {system['space']} "
                     f"(variables {', '.join(system['variables'])})")
        for eq in system["equations"]:
            lines.append(f"    {eq}")
        lines.append(f"  dim {system['kernel']} = {system['dim']}")
    lines.append("")
    lines.append("K123: joint constraints on w in V1(x)V2(x)V3 "
                 f"({len(data['triple_system']['equations'])} rows)")
    for eq in data["triple_system"]["equations"]:
        lines.append(f"    {eq}")
    lines.append(f"  dim K123 = {data['triple_system']['dim']}")
    lines.append("")
    lines.append(f"signature: {data['signature']}")
    lines.append(f"case analysis branch: {data['case']}")
    lines.append(f"class: {data['class']}")
    return "\n".join(lines)
