"""Rewrite the golden fixtures of ``tests/test_golden.py`` and print what moved.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

For each sweep fixture it prints every (lambda, n) whose row changed, with
the old and new norm estimates, and every lambda whose verdict changed; for
the norms table, every (space, n) whose value changed; for commands.json,
every command whose exit code or stdout changed.  A fixture that did not
change is left as it was.
"""

import csv
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import COMMANDS, FIXTURES, GOLDEN, run  # noqa: E402


def _sweep_moves(old, new):
    def rows(data):
        table = csv.DictReader(io.StringIO(data.decode("utf-8")))
        return {(r["lambda_re"], r["lambda_im"], r["n"]): r for r in table}

    def values(row):
        return [v for k, v in row.items() if k != "verdict"]

    before, after = rows(old), rows(new)
    verdicts = set()
    for key in list(before) + [k for k in after if k not in before]:
        a, b = before.get(key), after.get(key)
        lam = f"{key[0]}{'' if key[1].startswith('-') else '+'}{key[1]}i"
        if a is None or b is None:
            yield f"  lambda={lam} n={key[2]}: {'added' if a is None else 'removed'}"
            continue
        if values(a) != values(b):
            yield (
                f"  lambda={lam} n={key[2]}: op {a['op_norm_est']} -> {b['op_norm_est']},"
                f" reg {a['reg_norm_est']} -> {b['reg_norm_est']}"
            )
        if a["verdict"] != b["verdict"] and lam not in verdicts:
            verdicts.add(lam)
            yield f"  lambda={lam}: verdict {a['verdict']} -> {b['verdict']}"


def _norms_moves(old, new):
    a, b = json.loads(old), json.loads(new)
    if (a["sizes"], a["spaces"]) != (b["sizes"], b["spaces"]):
        yield f"  table layout {a['sizes']} x {a['spaces']} -> {b['sizes']} x {b['spaces']}"
        return
    for n, row_a, row_b in zip(a["sizes"], a["norms"], b["norms"]):
        for space, x, y in zip(a["spaces"], row_a, row_b):
            if x != y:
                yield f"  {space} n={n}: {x!r} -> {y!r}"


def _commands():
    """Rewrite commands.json if any command's exit code or stdout moved, naming each."""
    path = GOLDEN / "commands.json"
    before = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    after = {}
    for name, argv in COMMANDS.items():
        code, output = run(argv)
        after[name] = {"argv": list(argv), "exit": code, "stdout": output.decode("utf-8")}
    if after == before:
        print("commands.json: unchanged")
        return
    path.write_text(json.dumps(after, indent=1) + "\n", encoding="utf-8")
    print(f"commands.json: {'rewritten' if before else 'written'}")
    for name in before.keys() - after.keys():
        print(f"  {name}: removed")
    for name, entry in after.items():
        if before and before.get(name) != entry:
            print(f"  {name}: ceslab {' '.join(entry['argv'])} moved")


def main():
    for name, argv in FIXTURES.items():
        path = GOLDEN / name
        code, new = run(argv)
        if code != 0:
            raise SystemExit(f"{name}: ceslab {' '.join(argv)} exited {code}")
        old = path.read_bytes() if path.exists() else None
        if old == new:
            print(f"{name}: unchanged")
            continue
        path.write_bytes(new)
        if old is None:
            print(f"{name}: written")
            continue
        print(f"{name}: rewritten")
        moves = _norms_moves if name.endswith(".json") else _sweep_moves
        for line in moves(old, new):
            print(line)
    _commands()


if __name__ == "__main__":
    main()
