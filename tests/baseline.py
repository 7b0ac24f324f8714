"""The pinned numbers of the reference runs, and the script that rewrites them.

`baseline.json` holds, for `configs/reference_1d.json` and
`configs/reference_2d.json`, every sweep record as (eps, t, err_l2,
err_w, r_norm, z2_norm, mass_drift) at 17 significant digits and the
fitted rate, and the seven detail lines `hartreelab validate` prints
for the 1D configuration at seed 0.  `tests/test_acceptance.py` compares
its module fixtures against them.  A change that moves a number on
purpose rewrites the file in the same commit, from the repository root:

    PYTHONPATH=src python tests/baseline.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PATH = Path(__file__).with_name("baseline.json")
RECORD_FIELDS = ("eps", "t", "err_l2", "err_w", "r_norm", "z2_norm", "mass_drift")


def record_rows(result) -> list:
    return [[getattr(r, name) for name in RECORD_FIELDS] for r in result.records]


def validate_lines(checks) -> list:
    """The lines `hartreelab validate` prints for the checks."""
    return [f"{name}: {'pass' if c.passed else 'FAIL'} (margin {c.margin:+.3f}) {c.detail}"
            for name, c in sorted(checks.items())]


def _number(x: float) -> str:
    return format(x, ".17g")


def render(sweeps: dict, lines: list) -> str:
    """The baseline file (JSON): `sweeps` maps a name to its SweepResult."""
    out = ['{"record_fields": ' + json.dumps(RECORD_FIELDS) + ',', ' "sweeps": {']
    for i, (name, result) in enumerate(sweeps.items()):
        rows = ",\n".join("   [" + ", ".join(map(_number, row)) + "]"
                          for row in record_rows(result))
        out += [f'  "{name}": {{"beta_fitted": {_number(result.beta_fitted)}, "records": [',
                rows, "  ]}" + ("," if i < len(sweeps) - 1 else "")]
    out += [' },', ' "validate_reference_1d_seed_0": [',
            ",\n".join("  " + json.dumps(line) for line in lines), " ]", "}"]
    return "\n".join(out) + "\n"


def main() -> int:
    from hartreelab import load_config, run_sweep, validate_suite

    sweeps = {name: run_sweep(load_config(ROOT / "configs" / f"{name}.json"))
              for name in ("reference_1d", "reference_2d")}
    checks = validate_suite(load_config(ROOT / "configs" / "reference_1d.json"), seed=0)
    PATH.write_text(render(sweeps, validate_lines(checks)))
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
