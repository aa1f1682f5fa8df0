"""Golden guard for the generated crude forms: every bounce region must keep
the same variable table, numerator, factors and elimination modes.

The expected tables are ``golden/crude_forms.json``.  After a change that is
meant to alter a constraint system, review the difference and regenerate it:

    PYTHONPATH=src python tests/test_crude_forms.py > tests/golden/crude_forms.json
"""

import json
import sys
from pathlib import Path

import pytest

from qtcatalan.catalan import F_REGIONS, H_REGIONS
from qtcatalan.omega import build_crude_F, build_crude_H

GOLDEN = Path(__file__).parent / "golden" / "crude_forms.json"

SECTIONS = tuple(f"F {r}" for r in F_REGIONS) + tuple(f"H {r}" for r in H_REGIONS)


def table(section: str) -> dict:
    """The crude form of a section as plain JSON values."""
    family, region = section.split()
    expr = (build_crude_F if family == "F" else build_crude_H)(region)
    return {"names": list(expr.vars.names),
            "numerator": [[c, list(mono)] for c, mono in expr.numerator],
            "factors": [list(f) for f in expr.factors],
            "elim": expr.elim}


def dump() -> str:
    """Every section's table, one field per line."""
    blocks = []
    for section in SECTIONS:
        fields = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                            for key, value in table(section).items())
        blocks.append(f"{json.dumps(section)}: {{\n{fields}\n}}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


@pytest.mark.parametrize("section", SECTIONS)
def test_crude_form_is_unchanged(section):
    assert table(section) == json.loads(GOLDEN.read_text())[section]


def test_golden_covers_every_region():
    assert tuple(json.loads(GOLDEN.read_text())) == SECTIONS


if __name__ == "__main__":
    sys.stdout.write(dump())
