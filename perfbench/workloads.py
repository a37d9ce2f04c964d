"""The three workloads: set-up, one operation, and the checks on its outputs.

A workload object is built from the seed.  ``setup`` makes the inputs and
puts the package's caches in the state the workload measures, and may run
again after the timed phase without losing what the checks need; ``rounds``
yields rounds without end, each a list of (key, operation) pairs that the
timed phase runs whole; ``before`` runs untimed ahead of each operation;
``op`` is the timed call; ``keep`` stores what the checks need; ``check``
runs after the timed phase and returns the reasons for any failure.
"""

from __future__ import annotations

import compileall
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

from fockheis import cherednik, cli, fock, oracles

from . import checks, inputs
from .trace import clear_caches


def child_env(root: str) -> dict:
    """The caller's environment with the checkout's src first on the path and
    no disk cache, so children run the default path of this checkout."""
    env = dict(os.environ)
    env.pop("FOCK_HEIS_CACHE_DIR", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# Calls into the package go through module attributes (fock.b_tau, not a
# name imported here) so that the traced run's span recorders see them.


def _plain(vec) -> dict:
    return checks.vector_from_json(vec.to_json())


class RaiseWarm:
    """Multiplicativity sweep with warm kernel caches."""

    name = "raise-warm"
    tail_percentile = 95
    setup_repeats = 4
    # closed-form sample: in these batches, every b_tau(tau, b, x) the
    # operation computes with b|tau| <= closed_form_weight
    closed_form_batches = (0, 1)
    closed_form_weight = 6

    def __init__(self, seed: int):
        self.seed = seed
        self.kept = {}
        self.mismatches = []

    def setup(self) -> None:
        self.pool = inputs.raise_pool(self.seed)
        self.lr = {}
        for s in inputs.RAISE_PAIR_SIZES:
            for t1, t2 in inputs.ordered_pairs(s):
                prod = oracles.schur_product_by_tableaux(t1, t2)
                self.lr[(t1, t2)] = [(tuple(t), c) for t, c in prod.items()]
        clear_caches()
        for batch in self.pool:  # fills every kernel cache the timed phase reads
            self.op(batch)

    def rounds(self):
        return itertools.repeat(list(enumerate(self.pool)))

    def before(self, batch) -> None:
        pass

    def op(self, batch):
        """[(lhs == rhs, {tau: b_tau(tau, b, x)}), ...], one per check."""
        out = []
        for b, x, (t1, t2) in batch:
            single = {t2: fock.b_tau(t2, b, x)}
            lhs = fock.b_tau(t1, b, single[t2])
            rhs = fock.FockVector.zero()
            for t, c in self.lr[(t1, t2)]:
                single[t] = fock.b_tau(t, b, x)
                rhs = rhs + single[t].scale(c)
            out.append((lhs == rhs, single))
        return out

    def keep(self, index: int, batch, out) -> None:
        if out is None:
            return
        for j, ((b, x, pair), (same, single)) in enumerate(zip(batch, out)):
            if not same:
                self.mismatches.append((index, b, pair))
            if index in self.closed_form_batches:
                self.kept.setdefault((index, j), single)

    def check(self) -> list:
        reasons = [f"multiplicativity fails: batch {i}, b={b}, pair {pair}" for i, b, pair in self.mismatches]
        closed = checks.ClosedForm()
        checked = 0
        for (index, j), single in sorted(self.kept.items()):
            b, x, _ = self.pool[index][j]
            px = _plain(x)
            for tau, y in single.items():
                if b * sum(tau) <= self.closed_form_weight:
                    checked += 1
                    reason = checks.check_equal(_plain(y), closed.apply(tau, b, px), f"b_tau({tau}, {b})")
                    if reason:
                        reasons.append(reason)
        if not checked:
            reasons.append("closed-form sample is empty")
        return reasons


class ModpCold:
    """character_pipeline from cold caches, one call per size class."""

    name = "modp-cold"
    tail_percentile = 90
    setup_repeats = 10
    # closed-form sample: every call of batch 0, and every call with
    # |tau| <= 3 in the first 16 batches; outputs of later batches are
    # checked as they arrive and dropped, so memory does not grow with speed
    closed_form_batches = (0,)
    closed_form_small = (16, 3)

    def __init__(self, seed: int):
        self.seed = seed
        self.kept = {}
        self.reasons = []

    def setup(self) -> None:
        self.pool = inputs.modp_pool(self.seed)
        # warm-up on a batch that is the same for every seed, so set-up time
        # does not depend on which inputs the seed drew
        clear_caches()
        self.op(inputs.modp_pool(0, 1)[0])
        clear_caches()

    def rounds(self):
        # every batch is distinct; a round is a single batch
        return itertools.cycle([[(k, batch)] for k, batch in enumerate(self.pool)])

    def before(self, batch) -> None:
        clear_caches()

    def op(self, batch):
        return [
            cherednik.character_pipeline(eta, cherednik.ParamLambda(a, b), inputs.MODP_P, table)
            for eta, a, b, mu, tau, table in batch
        ]

    def keep(self, index: int, batch, out) -> None:
        if out is None:
            return
        if index < self.closed_form_small[0]:
            self.kept.setdefault(index, (batch, out))
        else:
            self._check_batch(index, batch, out, None)

    def _check_batch(self, index, batch, outs, closed) -> None:
        n_batches, small = self.closed_form_small
        for (eta, a, b, mu, tau, table), y in zip(batch, outs):
            full = index in self.closed_form_batches or (index < n_batches and sum(tau) <= small)
            reason = checks.check_pipeline(
                _plain(y), tau, b, inputs.MODP_P, _plain(table[mu]), closed if full else None
            )
            if reason:
                self.reasons.append(f"batch {index}, eta={eta}, b={b}: {reason}")

    def check(self) -> list:
        closed = checks.ClosedForm()
        for index, (batch, outs) in sorted(self.kept.items()):
            self._check_batch(index, batch, outs, closed)
        return self.reasons


class CliCold:
    """One query per fresh interpreter, default options."""

    name = "cli-cold"
    tail_percentile = 90
    setup_repeats = 10

    def __init__(self, seed: int, root: str, workdir: str, in_process: bool = False):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.in_process = in_process
        self.env = child_env(root)
        self.kept = {}

    def setup(self) -> None:
        self.vector = inputs.cli_vector(self.seed)
        path = os.path.join(self.workdir, f"x-{self.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.vector.to_json(), fh)
        self.queries = inputs.cli_round(self.seed, "@" + path)
        compileall.compile_dir(os.path.join(self.root, "src", "fockheis"), force=True, quiet=1)
        warm = next(argv for argv, spec in self.queries if spec["kind"] == "label-image")
        self._run_child(warm)  # untimed query on the fresh bytecode

    def rounds(self):
        return itertools.repeat([(i, i) for i in range(len(self.queries))])

    def before(self, i) -> None:
        if self.in_process:
            clear_caches()

    def _run_child(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "fockheis.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, timeout=120,
        )
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    def _run_in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects before main's handler
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def op(self, i):
        argv = self.queries[i][0]
        return self._run_in_process(argv) if self.in_process else self._run_child(argv)

    def keep(self, index: int, i, out) -> None:
        if out is None:
            return
        first = self.kept.setdefault(i, out)
        if first is not out and first != out:
            self.kept[("differs", i)] = out

    def check(self) -> list:
        reasons = []
        x = _plain(self.vector)
        for key, (code, stdout, stderr) in sorted(self.kept.items(), key=lambda kv: str(kv[0])):
            if isinstance(key, tuple):
                reasons.append(f"query {key[1]}: output differs between rounds")
                continue
            argv, spec = self.queries[key]
            if code != 0:
                reasons.append(f"{' '.join(argv)}: exit {code}: {stderr.strip()[:200]}")
                continue
            reason = _check_query(spec, json.loads(stdout), x)
            if reason:
                reasons.append(f"{' '.join(argv)}: {reason}")
        if len([k for k in self.kept if not isinstance(k, tuple)]) != len(self.queries):
            reasons.append("not every query ran")
        return reasons


def _check_query(spec: dict, payload, x: dict):
    kind = spec["kind"]
    if kind == "char-table":
        return checks.check_char_table(payload, spec["n"])
    if kind == "lr":
        return checks.check_lr(payload, spec["mu"], spec["nu"], spec["oracle"])
    if kind == "label-image":
        return checks.check_label_image(
            payload, spec["tau"], spec["a"], spec["b"], spec["mu"], spec["tau1"]
        )
    if kind == "verma-hilbert":
        return checks.check_verma_hilbert(payload, spec["eta"], Fraction(0), spec["max_deg"])
    if kind == "stability-interval":
        return checks.check_stability(payload, spec["z"], spec["p"], spec["n"])
    if kind == "pipeline":
        out = checks.vector_from_json(payload)
        return checks.check_pipeline(
            out, spec["tau"], spec["b"], spec["p"], {spec["mu"]: {Fraction(0): Fraction(1)}},
            checks.ClosedForm(),
        )
    out = checks.vector_from_json(payload)
    if kind == "heis-modp":
        return checks.check_vanishes_at_one(out, "heis-modp")
    if kind == "b-op":
        return checks.check_specialization(out, x, lambda n: n)
    if kind == "b-tau":
        return checks.check_specialization(out, x, lambda n: checks.schur_at_ones(spec["tau"], n))
    return f"no check for {kind}"


WORKLOADS = {w.name: w for w in (RaiseWarm, ModpCold, CliCold)}
