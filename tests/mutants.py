"""Mutation battery: one-place edits of ``src/`` that named tests must catch.

Each row of ``MUTANTS`` is (name, file under src/graphdrs, exact old text,
new text, test node ids).  For each row the battery copies ``src/``,
``tests/`` and ``pyproject.toml`` into a temporary directory, applies the
edit to the copy, and runs ``pytest -x`` on the row's node ids there with
``PYTHONPATH`` pointed at the copied ``src/``.  A row fails when its old
text does not occur exactly once in its file (the row is stale: the code it
mutates has changed) or when its tests pass on the mutant (it survives).
A verdict assumes the listed tests pass on the unedited tree, which Tier-1
checks first.

The file has no ``test_`` prefix, so Tier-1 does not collect it.  Run it
from the repository root::

    python tests/mutants.py             # every row
    python tests/mutants.py unread tau  # rows whose name contains a word

It prints one line per row and exits 1 if any row fails.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SIM = "simulate.py"
SOLVER = "solver.py"
OPS = "operators.py"

MUTANTS = [
    # -- the simulated round ---------------------------------------------
    ("dual terms summed out of z_rows order", SIM,
     'remap(plan.z_rows, range(plan.n_nodes), "w")',
     "remap(_Csr(plan.z_rows.shape, plan.z_rows.rows[::-1], plan.z_rows.indices[::-1], "
     'plan.z_rows.data[::-1]), range(plan.n_nodes), "w")',
     ["tests/test_sim.py::test_final_duals_equal_centralized_duals"]),
    # (2/d) / 2 is 1/d to the bit; the reference rounds solve each hinge alone
    ("inv_d skipped for the hinge rows", SOLVER,
     "r += w_term[rows]", "r += w_term[rows] / (two_over_d / 2)",
     ["tests/test_sim.py::test_stacked_agents_with_late_receives_or_no_inputs"]),  # SVM: d = 1
    ("the empty-set skip also skips a one-slot set", SIM,
     "if len(recv_slots):", "if len(recv_slots) > 1:",
     ["tests/test_sim.py::test_final_duals_equal_centralized_duals"]),
    ("a broadcast send onto a slice one slot short", SIM,
     "slice(send_slots[0], send_slots[-1] + 1)", "slice(send_slots[0], send_slots[-1])",
     ["tests/test_sim.py::test_tree_protocol_bit_identical"]),
    ("a dual term reads the owner's w, not its message", SIM,  # w is the operand's head
     'remap(plan.z_rows, range(plan.n_nodes), "w")',
     "_Csr((plan.n_nodes, len(at)), plan.z_rows.rows, plan.z_rows.indices, plan.z_rows.data)",
     ["tests/test_sim.py::test_agents_read_their_dual_messages"]),
    ("the dual-term map keyed by each term's owner, not the agent holding it", SIM,
     "at[holders[r], kind, c]", 'at[owner[c] if kind == "w" else holders[r], kind, c]',
     ["tests/test_sim.py::test_agents_read_their_dual_messages"]),
    ("the unread check removed", SIM,
     "        if np.count_nonzero(full):", "        if False:",
     ["tests/test_sim.py::test_unread_message_names_round_agent_and_kind"]),
    ("the missing check removed", SIM,
     "        if np.count_nonzero(full) < len(full):", "        if False:",
     ["tests/test_sim.py::test_missing_message_names_round_agent_and_kind"]),
    ("a single agent reads its inputs off x, not its messages", SIM,
     '[at[i, "x", h] for h in nbrs]', '[at[h, "x", h] for h in nbrs]',
     ["tests/test_sim.py::test_svm_level_turns_equal_agent_turns_bitwise"]),
    ("a level's single rows left as in-neighbour labels on the operand", SIM,
     '[at[i, "x", h] for h in nbrs]', "nbrs",
     ["tests/test_sim.py::test_svm_level_turns_equal_agent_turns_bitwise"]),
    ("the hinges read their inputs off x, not their messages", SIM,
     'remap(into, hinge_rows.tolist(), "x")',
     "_Csr((len(hinge_rows), len(at)), into.rows, into.indices + self._x_rows.start, into.data)",
     ["tests/test_sim.py::test_svm_level_turns_equal_agent_turns_bitwise"]),
    ("no finiteness check in a simulated round", SIM,
     "            _check_finite(x, plan.ops, rnd - 1, plan.finite)\n", "",
     ["tests/test_sim.py::test_non_finite_round_fails_as_the_centralized_step"]),
    ("two runs share one slot buffer", SIM,
     "        run = copy.copy(self)\n", "        run = self\n",
     ["tests/test_sim.py::test_interleaved_runs_each_equal_a_fresh_run"]),
    ("a negative round count runs no round", SIM,
     "or n < 0:", "or n < -10:",
     ["tests/test_sim.py::test_round_count_must_be_a_non_negative_integer"]),
    # -- the centralized sweep -------------------------------------------
    ("a wrong 2/d_i in the input sum", SOLVER,
     "out *= 2.0 / d_i", "out *= 1.0 / d_i",
     ["tests/test_solver.py::test_ryu_transcription"]),
    ("tau_i = sigma instead of sigma/d_i", SOLVER,
     "op(sigma / d_i, out, out=out)", "op(sigma, out, out=out)",
     ["tests/test_solver.py::test_ryu_transcription"]),
    ("the dual update written into the caller's w", SOLVER,
     "np.subtract(w, w_new, out=w_new)", "np.subtract(w, w_new, out=w)",
     ["tests/test_solver.py::test_step_returns_fresh_arrays_and_one_plan_serves_two_dims"]),
    ("a sign flip in the incidence Z", "factorization.py",
     "z[i, col] = 1.0", "z[i, col] = -1.0",
     ["tests/test_factorization.py"]),
    ("the first input copied without +0.0", SOLVER,
     "np.add(xs_in[0], 0.0, out=out)", "np.copyto(out, xs_in[0])",
     ["tests/test_solver.py::test_node_solution_sums_signed_zeros_from_plus_zero"]),
    ("the full-shape 1/d_i built from in-degrees", SOLVER,
     "np.repeat(1.0 / degrees[:, None]",
     "np.repeat(1.0 / np.array([max(len(h), 1) for h in self.in_nbrs])[:, None]",
     ["tests/test_solver.py::test_ryu_transcription"]),
    # -- the resolvents ----------------------------------------------------
    ("a column multiply reading the other flux column", OPS,
     "np.multiply(blocks[:, 1], scale, out=flux[:, 1])",
     "np.multiply(blocks[:, 0], scale, out=flux[:, 1])",
     ["tests/test_operators.py::test_block_kernels_equal_norm_forms_at_transport_scale"]),
    ("an infinite step size taken", OPS,
     "if not 0 <= tau < math.inf:", "if not 0 <= tau:",
     ["tests/test_operators.py::test_infinite_tau_rejected"]),
    ("a bool block index read as 0 or 1", OPS,
     "if isinstance(v, bool) or not", "if not",
     ["tests/test_operators.py::test_capacity_rejects_malformed_index_sets"]),
    # -- the two survivors of the first probe, pinned since ----------------
    ("the stop boundary < becomes <=", SOLVER,
     "residual_sq < cfg.tol", "residual_sq <= cfg.tol",
     ["tests/test_solver.py::test_residual_tol_stops_strictly_below"]),
    ("one kept factor per resolvent", OPS,
     "TAU_CACHE = 16", "TAU_CACHE = 1",
     ["tests/test_solver.py::test_svm_sigma_sweep_factors_each_official_once_per_sigma"]),
]


def check(name, file, old, new, tests):
    """Run one row; returns None when its mutant is caught, else why not."""
    with tempfile.TemporaryDirectory(prefix="graphdrs-mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = tmp / "src" / "graphdrs" / file
        text = path.read_text()
        if text.count(old) != 1:
            return f"stale: the old text occurs {text.count(old)} times in {file}"
        path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
        if done.returncode == 0:
            return "survived: " + done.stdout.strip().splitlines()[-1]
        if done.returncode != 1:  # 1: tests failed; anything else is no verdict
            return f"no verdict: pytest exited {done.returncode}\n{done.stdout}{done.stderr}"
    return None


def main(words):
    rows = [row for row in MUTANTS if not words or any(w in row[0] for w in words)]
    failed, start = 0, time.perf_counter()
    for row in rows:
        t0 = time.perf_counter()
        why = check(*row)
        failed += why is not None
        print(f"{'caught' if why is None else 'FAILED'} {time.perf_counter() - t0:5.1f} s  "
              f"{row[0]}" + ("" if why is None else f": {why}"), flush=True)
    print(f"{len(rows) - failed} of {len(rows)} mutants caught "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
