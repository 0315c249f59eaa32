"""The solvers' equilibria on the 240 cells of the default sweep grid, against
a stored reference.

``tests/data/solve240_reference.json`` holds, for every cell, the exception
type the solver raised, or each equilibrium's aggregate, actions, active set
and residual.  Regenerate it only for a change that moves equilibria on
purpose, and say which moved and why:

    PYTHONPATH=src python tests/test_solver_reference.py

Before it writes, that prints each cell that moves past the test's 1e-12
relative, stored and new, and the count and the worst relative move of all
the cells that moved.
"""

import json
import math
from pathlib import Path

import numpy as np

from teamgames.errors import TeamworkGameError
from teamgames.experiments import SweepConfig, _cell_specs, cell_game, solve_cell

REFERENCE = Path(__file__).parent / "data" / "solve240_reference.json"


def solve240() -> list[dict]:
    """Every default cell's parameters and its equilibria or exception type."""
    config = SweepConfig()
    cells = []
    for _, p1, p2, rho, b in _cell_specs(config):
        cell = {"p1": p1, "p2": p2, "rho": rho, "b": b}
        try:
            equilibria = solve_cell(cell_game(config, p1, p2, rho, b))
        except TeamworkGameError as exc:
            cell["error"] = type(exc).__name__
        else:
            cell["equilibria"] = [{"G": e.aggregate_G, "actions": list(e.actions),
                                   "active_set": list(e.active_set), "residual": e.residual}
                                  for e in equilibria]
        cells.append(cell)
    return cells


def test_default_grid_matches_reference():
    reference = json.loads(REFERENCE.read_text())
    solved = solve240()
    assert len(solved) == len(reference) == 240
    for new, old in zip(solved, reference):
        cell = {key: old[key] for key in ("p1", "p2", "rho", "b")}
        assert {key: new[key] for key in cell} == cell
        assert new.get("error") == old.get("error"), cell
        if "error" in old:
            continue
        assert len(new["equilibria"]) == len(old["equilibria"]), cell
        for e_new, e_old in zip(new["equilibria"], old["equilibria"]):
            assert e_new["active_set"] == e_old["active_set"], cell
            np.testing.assert_allclose(e_new["G"], e_old["G"], rtol=1e-12, atol=0,
                                       err_msg=str(cell))
            np.testing.assert_allclose(e_new["actions"], e_old["actions"], rtol=1e-12,
                                       atol=0, err_msg=str(cell))


def relative_move(new: dict, old: dict) -> float:
    """The largest relative move of a cell's aggregates and actions, as the
    test measures it; inf where its exception, equilibrium count or active
    sets changed."""
    if (new.get("error") != old.get("error")
            or len(new.get("equilibria", [])) != len(old.get("equilibria", []))):
        return math.inf
    worst = 0.0
    for e_new, e_old in zip(new.get("equilibria", []), old.get("equilibria", [])):
        if e_new["active_set"] != e_old["active_set"]:
            return math.inf
        x = np.array([e_new["G"], *e_new["actions"]])
        y = np.array([e_old["G"], *e_old["actions"]])
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = max(worst, float(np.where(x == y, 0.0, abs(x - y) / abs(y)).max()))
    return worst


if __name__ == "__main__":
    cells = solve240()
    if REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text())
        moves = [relative_move(new, old) for new, old in zip(cells, reference)]
        for move, new, old in zip(moves, cells, reference):
            if move > 1e-12:
                print(f"moved {move:.3g}: {old} -> {new}")
        moved = [move for move in moves if move > 0.0]
        print(f"{len(moved)} of {len(cells)} cells moved, worst relative move "
              f"{max(moved, default=0.0):.3g}")
    REFERENCE.parent.mkdir(exist_ok=True)
    # one cell a line, so a regenerated file diffs cell by cell
    REFERENCE.write_text("[\n" + ",\n".join(json.dumps(cell) for cell in cells) + "\n]\n")
