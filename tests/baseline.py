"""The pinned numbers of the reference runs, and the script that rewrites them.

`baseline.json` holds, for `configs/reference_1d.json` and
`configs/reference_2d.json`, every sweep record as (eps, t, err_l2,
err_w, r_norm, z2_norm, mass_drift) at 17 significant digits and the
fitted rate, the seven detail lines `hartreelab validate` prints for
the 1D configuration at seed 0, and the `trajectory.csv` lines
`hartreelab simulate` writes for the 1D configuration cut to eps = 0.2.
`tests/test_acceptance.py` compares its module fixtures and a simulate
run against them.  A change that moves a number on
purpose rewrites the file in the same commit, from the repository root:

    PYTHONPATH=src python tests/baseline.py

`--diff` writes nothing: it prints, for each pinned quantity (a sweep's
fitted rate and record fields, a validate line's numbers, a trajectory
column), the largest relative move of a fresh run against the file, and
exits 1 if any quantity moved or any count differs, 0 if none did.
"""

import itertools
import json
import math
import re
import sys
import tempfile
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


def simulate_lines(workdir) -> list:
    """The trajectory.csv lines of `hartreelab simulate` on
    configs/reference_1d.json with epsilons [0.2], run under `workdir`."""
    from hartreelab.cli import main

    doc = json.loads((ROOT / "configs" / "reference_1d.json").read_text())
    doc.update(epsilons=[0.2], output=str(Path(workdir) / "out"))
    path = Path(workdir) / "simulate.json"
    path.write_text(json.dumps(doc))
    if main(["simulate", "--config", str(path)]) != 0:
        raise RuntimeError("simulate failed on the reference configuration")
    return (Path(workdir) / "out" / "trajectory.csv").read_text().splitlines()


def _number(x: float) -> str:
    return format(x, ".17g")


def _string_list(key: str, lines: list) -> list:
    return [f' "{key}": [', ",\n".join("  " + json.dumps(line) for line in lines)]


def render(sweeps: dict, lines: list, trajectory: list) -> str:
    """The baseline file (JSON): `sweeps` maps a name to its SweepResult."""
    out = ['{"record_fields": ' + json.dumps(RECORD_FIELDS) + ',', ' "sweeps": {']
    for i, (name, result) in enumerate(sweeps.items()):
        rows = ",\n".join("   [" + ", ".join(map(_number, row)) + "]"
                          for row in record_rows(result))
        out += [f'  "{name}": {{"beta_fitted": {_number(result.beta_fitted)}, "records": [',
                rows, "  ]}" + ("," if i < len(sweeps) - 1 else "")]
    out += [" },", *_string_list("validate_reference_1d_seed_0", lines), " ],",
            *_string_list("simulate_reference_1d_eps_0.2", trajectory), " ]", "}"]
    return "\n".join(out) + "\n"


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _moves(new: float, old: float) -> tuple:
    """(relative, absolute) move from old to new; relative to |old|, and
    infinite off an exact zero."""
    if new == old:
        return 0.0, 0.0
    return (abs(new - old) / abs(old) if old else math.inf), abs(new - old)


def diff(fresh: dict, pinned: dict) -> tuple:
    """(lines, status): one line per pinned quantity, its largest relative
    move from `pinned` to `fresh`, both parsed baseline files, and its
    largest absolute move; and the exit status of `--diff`, 1 if a
    quantity moved or a count differs and 0 otherwise."""
    moves = {}

    def note(key, new_values, old_values):
        if len(new_values) != len(old_values):
            moves[key] = f"{len(new_values)} values against {len(old_values)} pinned"
        elif not isinstance(moves.get(key), str):
            pairs = [moves.get(key, (0.0, 0.0))]
            pairs += [_moves(float(a), float(b)) for a, b in zip(new_values, old_values)]
            moves[key] = tuple(map(max, zip(*pairs)))

    for name, want in pinned["sweeps"].items():
        got = fresh["sweeps"][name]
        note(f"{name} beta_fitted", [got["beta_fitted"]], [want["beta_fitted"]])
        note(f"{name} record count", [len(got["records"])], [len(want["records"])])
        for row, ref in zip(got["records"], want["records"]):
            for field, new, old in zip(RECORD_FIELDS, row, ref):
                note(f"{name} {field}", [new], [old])
    key = "validate_reference_1d_seed_0"
    for line, ref in itertools.zip_longest(fresh[key], pinned[key], fillvalue=""):
        note(f"validate {ref.split(':')[0]}", NUMBER.findall(line), NUMBER.findall(ref))
    key = "simulate_reference_1d_eps_0.2"
    header, *rows = pinned[key]
    for line, ref in itertools.zip_longest(fresh[key][1:], rows, fillvalue=""):
        for column, new, old in itertools.zip_longest(header.split(","), line.split(","),
                                                      ref.split(","), fillvalue="nan"):
            note(f"simulate {column}", [new], [old])
    lines = [f"{key}: " + (move if isinstance(move, str)
                           else "relative {:.3g}, absolute {:.3g}".format(*move))
             for key, move in moves.items()]
    return lines, int(any(isinstance(move, str) or any(move) for move in moves.values()))


def main(argv=None) -> int:
    from hartreelab import load_config, run_sweep, validate_suite

    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--diff"]):
        print("usage: python tests/baseline.py [--diff]", file=sys.stderr)
        return 2
    sweeps = {name: run_sweep(load_config(ROOT / "configs" / f"{name}.json"))
              for name in ("reference_1d", "reference_2d")}
    checks = validate_suite(load_config(ROOT / "configs" / "reference_1d.json"), seed=0)
    with tempfile.TemporaryDirectory() as workdir:
        trajectory = simulate_lines(workdir)
    text = render(sweeps, validate_lines(checks), trajectory)
    if argv:
        lines, status = diff(json.loads(text), json.loads(PATH.read_text()))
        print("\n".join(lines))
        return status
    PATH.write_text(text)
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
