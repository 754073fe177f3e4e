"""Mutation battery: one-place edits of ``src/`` that named tests must catch.

Each row of ``MUTANTS`` is (name, file under src/graphdrs, exact old text,
new text, test node ids).  For each row the battery copies ``src/``,
``tests/`` and ``pyproject.toml`` into a temporary directory, applies the
edit to the copy, re-registers the copied ``derandomized`` hypothesis
profile without its shrink phase (``NO_SHRINK``, appended to the copy's
``tests/conftest.py``), and runs ``pytest -x`` on the row's node ids there
with ``PYTHONPATH`` pointed at the copied ``src/``.  A row fails when its old
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
CHECKS = "_checks.py"

# appended to the copy's tests/conftest.py: a property test that catches a
# mutant reports its first failing example unshrunk, as the verdict needs no
# minimal one (a shrink took 50 s against 1-3 s for a row without one)
NO_SHRINK = """
from hypothesis import Phase

settings.register_profile("derandomized", settings.get_profile("derandomized"),
                          phases=[p for p in Phase if p is not Phase.shrink])
"""

MUTANTS = [
    # -- the simulated round ---------------------------------------------
    ("dual terms summed out of z_rows order", SIM,
     'remap(plan.z_rows, plan.order, "w")',
     "remap(_Csr(plan.z_rows.shape, plan.z_rows.rows[::-1], plan.z_rows.indices[::-1], "
     'plan.z_rows.data[::-1]), plan.order, "w")',
     ["tests/test_sim.py::test_final_duals_equal_centralized_duals"]),
    # (2/d) / 2 is 1/d to the bit; the reference rounds solve each hinge alone
    ("inv_d skipped for the hinge rows", SOLVER,
     "r += w_term[terms]", "r += w_term[terms] / (two_over_d / 2)",
     ["tests/test_sim.py::test_stacked_agents_with_late_receives_or_no_inputs"]),  # SVM: d = 1
    ("the empty-set skip also skips a one-slot set", SIM,
     "if len(recv_slots):", "if len(recv_slots) > 1:",
     ["tests/test_sim.py::test_final_duals_equal_centralized_duals"]),
    ("a broadcast send onto a slice one slot short", SIM,
     "slice(send_slots[0], send_slots[-1] + 1)", "slice(send_slots[0], send_slots[-1])",
     ["tests/test_sim.py::test_tree_protocol_bit_identical"]),
    ("a dual term reads the owner's w, not its message", SIM,  # w is the operand's head
     'remap(plan.z_rows, plan.order, "w")',
     "_Csr((n, len(at)), plan.z_rows.rows, plan.z_rows.indices, plan.z_rows.data)",
     ["tests/test_sim.py::test_agents_read_their_dual_messages"]),
    ("the dual-term map keyed by each term's owner, not the agent holding it", SIM,
     "at[holders[r], kind, c]", 'at[owner[c] if kind == "w" else holders[r], kind, c]',
     ["tests/test_sim.py::test_agents_read_their_dual_messages"]),
    ("the unread check removed", SIM,
     "        if self.held & bits:", "        if False:",
     ["tests/test_sim.py::test_unread_message_names_round_agent_and_kind"]),
    ("the missing check removed", SIM,
     "        if (self.held & bits) != bits:", "        if False:",
     ["tests/test_sim.py::test_missing_message_names_round_agent_and_kind"]),
    ("a slice mask one slot short", SIM,
     "((1 << len(run)) - 1) << run.start", "((1 << len(run) - 1) - 1) << run.start",
     ["tests/test_sim.py::test_tree_protocol_bit_identical"]),
    ("a receive that clears its bits without checking", SIM,
     "                    self._recv(rnd, recv_slots)\n",
     "                    self.held &= ~recv_slots.bits\n",
     ["tests/test_sim.py::test_missing_message_names_round_agent_and_kind"]),
    # the late receives read x's block too, where x is by then; the levels read stale rows
    ("a level reads x's block instead of its slot rows", SIM,
     "at.update((key, len(owner) + s) for key, s in slot.items())",
     'at.update((key, len(owner) + s if key[1] == "w" else at[key[2], "x", key[2]]) '
     "for key, s in slot.items())",
     ["tests/test_sim.py::test_svm_level_turns_equal_agent_turns_bitwise",
      "tests/test_sim.py::test_stacked_agents_with_late_receives_or_no_inputs"]),
    # StepPlan._level builds the simulator's levels too, reading at[i, "x", h]
    ("a single agent reads its inputs off x, not its messages", SOLVER,
     "[read(i, h) for h in self.in_nbrs[i]]", "[read(h, h) for h in self.in_nbrs[i]]",
     ["tests/test_sim.py::test_svm_level_turns_equal_agent_turns_bitwise"]),
    ("a level's single rows left as in-neighbour labels on the operand", SOLVER,
     "[read(i, h) for h in self.in_nbrs[i]]", "self.in_nbrs[i]",
     ["tests/test_sim.py::test_svm_level_turns_equal_agent_turns_bitwise"]),
    ("the hinges read their inputs off x, not their messages", SOLVER,
     "cols = [read(i, h) for i in hinges", "cols = [read(h, h) for i in hinges",
     ["tests/test_sim.py::test_svm_level_turns_equal_agent_turns_bitwise"]),
    # the sweep's read, in-neighbour h at row h, lands on the operand's duals and slots
    ("the simulator's levels built with the default read (x's rows)", SIM,
     'plan._level(nodes, lambda i, h: at[i, "x", h], len(at))',
     "plan._level(nodes, lambda i, h: h, len(at))",
     ["tests/test_sim.py::test_tree_protocol_bit_identical",
      "tests/test_sim.py::test_svm_level_turns_equal_agent_turns_bitwise"]),
    ("the late set taken from needs without removing the level keys", SIM,
     "sorted(needs - level_keys)", "sorted(needs)",
     ["tests/test_sim.py::test_stacked_agents_with_late_receives_or_no_inputs"]),
    ("no finiteness check in a simulated round", SIM,
     "            _check_finite(x, plan.ops, rnd - 1, plan.finite)\n", "",
     ["tests/test_sim.py::test_non_finite_round_fails_as_the_centralized_step"]),
    ("two runs share one slot buffer", SIM,
     "        run = copy.copy(self)\n", "        run = self\n",
     ["tests/test_sim.py::test_interleaved_runs_each_equal_a_fresh_run"]),
    ("a negative round count runs no round", SIM,
     'integer("rounds", n, ValueError, "non-negative")', 'integer("rounds", n, ValueError)',
     ["tests/test_sim.py::test_round_count_must_be_a_non_negative_integer"]),
    # -- the CLI -------------------------------------------------------------
    ("a replay check that never measures a deviation", "cli.py",
     "if x_sim.tobytes() != x.tobytes():", "if False:",
     ["tests/test_cli.py::test_simulate_reports_a_perturbed_replay_round_exactly"]),
    # -- the input checks ----------------------------------------------------
    ("an edge label truncated again", "graphs.py",
     '(integer(f"a label of edge {e!r}", v, GraphError) for v in (i, j))', "int(i), int(j)",
     ["tests/test_graphs.py::test_edge_labels_must_be_integers"]),
    ("an edge read as its first two items", "graphs.py",
     "                i, j = e\n", "                i, j = e[0], e[1]\n",
     ["tests/test_graphs.py::test_an_edge_must_be_a_pair"]),
    ("a set or a mapping taken as an edge", "graphs.py",
     "if type(e) is not tuple and not isinstance(e, (Sequence, np.ndarray)):", "if False:",
     ["tests/test_graphs.py::test_an_edge_must_be_a_pair"]),
    ("a float enumeration size let through", "graphs.py",
     'n = n if type(n) is int else integer("n", n, GraphError)', "n = n",
     ["tests/test_graphs.py::test_enumeration_size_must_be_an_integer"]),
    ("a bool mu accepted", OPS,
     'real("mu", mu, OperatorError', 'real("mu", float(mu), OperatorError',
     ["tests/test_operators.py::test_scalar_arguments_must_be_real_numbers"]),
    # -- the shared argument checks --------------------------------------
    ("integer lets a bool through", CHECKS,
     "(isinstance(v, bool) or not isinstance(v, numbers.Integral))",
     "not isinstance(v, numbers.Integral)",
     ["tests/test_solver.py::test_config_rejects_non_integer_max_iter"]),
    ("integer reads \"positive\" as >= 0", CHECKS,
     '"positive": 1}', '"positive": 0}',
     ["tests/test_operators.py::test_resolvent_dimension_must_be_a_positive_integer"]),
    ("real drops the finiteness test for a signed check", CHECKS,
     "math.isfinite(v) and (", '(math.isfinite(v) or need != "finite") and (',
     ["tests/test_solver.py::test_config_rejects_non_finite"]),
    ("array names the last non-finite entry instead of the first", CHECKS,
     "[0].tolist()", "[-1].tolist()",
     ["tests/test_operators.py::test_quadratic_rejects_non_finite_k_by_entry"]),
    ("an SVM count taken without an integer check", "problems.py",
     "        integer(name, v, ValueError)\n", "        pass\n",
     ["tests/test_problems.py::test_build_svm_names_a_count_or_seed_before_drawing_the_dataset"]),
    ("the SVM seed handed to numpy unchecked", "problems.py",
     'integer("seed", seed, ValueError, "non-negative")', "seed",
     ["tests/test_problems.py::test_build_svm_names_a_count_or_seed_before_drawing_the_dataset"]),
    ("a float grid side let into build_transport", "problems.py",
     'p = integer("p", p, ValueError, "positive")', "p = p",
     ["tests/test_problems.py::test_build_transport_checks_the_grid_side_first"]),
    ("the duals' row count left to the dual-term product", SOLVER,
     "if w.shape != plan.w_shape:", "if w.shape[1:] != plan.w_shape[1:]:",
     ["tests/test_solver.py::test_step_names_duals_with_the_wrong_row_count"]),
    ("a step takes any sigma", SOLVER,
     '    real("sigma", sigma, ValueError, "positive and finite")\n', "",
     ["tests/test_solver.py::test_a_step_names_a_bad_sigma_or_theta"]),
    ("a step takes a theta of 2 or more", SOLVER,
     'if not 0.0 < real("theta", theta, ValueError) < 2.0:',
     'if not 0.0 < real("theta", theta, ValueError):',
     ["tests/test_solver.py::test_a_step_names_a_bad_sigma_or_theta"]),
    ("a NaN or negative range tolerance taken", OPS,
     'real("range_tol", range_tol, OperatorError, "nonnegative and finite")',
     'real("range_tol", range_tol, OperatorError)',
     ["tests/test_operators.py::test_affine_range_tolerance_must_be_nonnegative_and_finite"]),
    ("a NaN or negative alignment tolerance taken", "factorization.py",
     'real("tol", tol, FactorizationError, "nonnegative and finite")',
     'real("tol", tol, FactorizationError)',
     ["tests/test_factorization.py::test_align_tolerance_must_be_nonnegative_and_finite"]),
    ("a (center, width) pair told by a scalar width again", "problems.py",
     "if isinstance(spec, tuple) and len(spec) == 2:",
     "if isinstance(spec, tuple) and len(spec) == 2 and np.isscalar(spec[1]):",
     ["tests/test_problems.py::test_a_bad_blob_width_names_its_density"]),
    ("a bad blob width that names neither density", "problems.py",
     'raise ValueError(f"{name}: {exc}") from None', "raise",
     ["tests/test_problems.py::test_a_bad_blob_width_names_its_density"]),
    # -- the centralized sweep -------------------------------------------
    ("a wrong 2/d_i in the input sum", SOLVER,
     "out *= 2.0 / d_i", "out *= 1.0 / d_i",
     ["tests/test_solver.py::test_ryu_transcription"]),
    ("tau_i = sigma instead of sigma/d_i", SOLVER,
     "op(sigma / d_i, out, out=out)", "op(sigma, out, out=out)",
     ["tests/test_solver.py::test_ryu_transcription"]),
    # SVM: the hinges' slice starts after the five officials' rows, so it stays in range
    ("the hinge dual-term slice shifted by one row", SOLVER,
     "slice(first, first + len(hinges))", "slice(first - 1, first - 1 + len(hinges))",
     ["tests/test_solver.py::test_svm_hinges_are_one_stacked_call_on_the_last_level",
      "tests/test_properties.py::test_interleaved_hinge_levels_equal_per_node_sweep_bitwise"]),
    ("the dual update written into the caller's w", SOLVER,
     "np.subtract(w, w_new, out=w_new)", "np.subtract(w, w_new, out=w)",
     ["tests/test_solver.py::test_step_returns_fresh_arrays_and_one_plan_serves_two_dims"]),
    ("a sign flip in the incidence Z", "factorization.py",
     "z[i, col] = 1.0", "z[i, col] = -1.0",
     ["tests/test_factorization.py"]),
    ("the first input copied without +0.0", SOLVER,
     "np.add(xs_in[0], 0.0, out=out)", "np.copyto(out, xs_in[0])",
     ["tests/test_solver.py::test_node_solution_sums_signed_zeros_from_plus_zero"]),
    ("the input-free node copies w_term instead of adding 0.0", SOLVER,
     "np.add(w_term, 0.0, out=out)", "np.copyto(out, w_term)",
     ["tests/test_solver.py::test_node_solution_sums_signed_zeros_from_plus_zero"]),
    ("the full-shape 1/d_i built from in-degrees", SOLVER,
     "np.repeat(1.0 / degrees[self.order, None]",
     "np.repeat(1.0 / np.array([max(len(h), 1) for h in self.in_nbrs])[self.order, None]",
     ["tests/test_solver.py::test_ryu_transcription"]),
    # -- the resolvents ----------------------------------------------------
    ("a column multiply reading the other flux column", OPS,
     "np.multiply(blocks[:, 1], scale, out=flux[:, 1])",
     "np.multiply(blocks[:, 0], scale, out=flux[:, 1])",
     ["tests/test_operators.py::test_block_kernels_equal_norm_forms_at_transport_scale"]),
    ("the bridge entry map drops each block's second component", OPS,
     "np.column_stack((2 * bridge, 2 * bridge + 1))", "np.column_stack((2 * bridge, 2 * bridge))",
     ["tests/test_operators.py::test_block_kernels_equal_norm_forms_at_transport_scale"]),
    # inverted, a guard copies r only onto itself: an out-of-place call reads stale out
    ("the grid step's self-copy guard inverted", OPS,
     "        if r is not out:  # a sweep resolves in place\n            np.copyto(out, r)\n"
     "        flux =",
     "        if r is out:\n            np.copyto(out, r)\n        flux =",
     ["tests/test_operators.py::test_grid_divergence_matches_dense_projection"]),
    ("the capacity self-copy guard inverted", OPS,
     "        if r is not out:  # a sweep resolves in place\n            np.copyto(out, r)\n"
     "        out[water_at]",
     "        if r is out:\n            np.copyto(out, r)\n        out[water_at]",
     ["tests/test_operators.py::test_capacity_projection"]),
    ("an infinite step size taken", OPS,
     "if not 0 <= tau < math.inf:", "if not 0 <= tau:",
     ["tests/test_operators.py::test_infinite_tau_rejected"]),
    ("a bool block index read as 0 or 1", OPS,
     "if isinstance(v, bool) or not", "if not",
     ["tests/test_operators.py::test_capacity_rejects_malformed_index_sets"]),
    # -- the compiled scipy routines, called as scipy's wrappers call them --
    ("the factor taken lower, solved upper", OPS,
     "lapack.dpotrf(a, lower=False", "lapack.dpotrf(a, lower=True",
     ["tests/test_compiled.py::test_random_spd_factors_and_solves_equal_scipy"]),
    ("the DCT matrix not normalized (inorm 0)", OPS,
     "pocketfft.dct(np.eye(p), 2, (0,), 1, None, 1, None)",
     "pocketfft.dct(np.eye(p), 2, (0,), 0, None, 1, None)",
     ["tests/test_compiled.py::test_grid_dct_equals_scipy_fft_dct"]),
    ("dpotrs's positional lower flag set to 1", OPS,
     "potrs(factor(tau), out, 0, 1)", "potrs(factor(tau), out, 1, 1)",
     ["tests/test_compiled.py::test_random_spd_factors_and_solves_equal_scipy"]),
    ("the symmetry check's rtol term dropped", OPS,
     "<= 1e-10 + 1e-5 * np.abs(k_matrix.T)", "<= 1e-10",
     ["tests/test_operators.py::test_symmetry_check_is_allclose_on_finite_k"]),
    ("an out of another shape or dtype taken", OPS,
     "elif out is not r and not (", "elif False and not (",
     ["tests/test_operators.py::test_an_out_that_cannot_hold_the_result_is_rejected_by_name"]),
    ("an indefinite factor's error names neither resolvent nor step", OPS,
     "f\"resolvent 'quadratic' at step size {tau}: {info}-th ", "f\"{info}-th ",
     ["tests/test_operators.py::test_an_indefinite_k_names_the_resolvent_and_step"]),
    ("the factor's finiteness check removed", OPS,
     "        if not np.isfinite(a).all():", "        if False:",
     ["tests/test_operators.py::test_quadratic_factor_overflow_names_the_operator_and_step"]),
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
        with open(tmp / "tests" / "conftest.py", "a") as fh:
            fh.write(NO_SHRINK)
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
