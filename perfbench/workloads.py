"""The four benchmark workloads.

Each workload is a closed loop driven by one client: the next op starts
when the previous one has returned.  An op is one call into a public entry
point, either `mspkit.cli.main(argv)` with stdout captured or a public
library function.  Functions are looked up on their module at call time,
so the tracer's wrappers are seen when they are installed.

Ops come in blocks.  Every block of a workload holds the same multiset of
op sizes, in an order and with inputs drawn from the seed, and a run times
whole blocks.  Op cost varies a hundredfold with size, so this keeps the
throughput and percentiles of two runs comparable whatever their seeds.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from fractions import Fraction

import oracles


class GuardError(RuntimeError):
    """A cache-state precondition of the workload does not hold."""


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    finally:
        sys.stdout, sys.stderr = saved
    return rc, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def random_egf(rng: random.Random, order: int) -> list[Fraction]:
    """Numerators uniform in [-99, 99] with f_1 != 0, denominators in [1, 20]."""
    coeffs = []
    for n in range(1, order + 1):
        num = rng.randint(-99, 99)
        while n == 1 and num == 0:
            num = rng.randint(-99, 99)
        coeffs.append(Fraction(num, rng.randint(1, 20)))
    return coeffs


def _csv(coeffs: list[Fraction]) -> str:
    return ",".join(str(c) for c in coeffs)


class Workload:
    """Set-up runs in the constructor, so that it is timed as `setup_s`."""

    name = ""
    cold = False  # every op must start from an empty MspCache
    traced_blocks = 1  # blocks replayed under the tracer
    setup_blocks = 4  # blocks generated during set-up
    setup_repeats = 11  # set-ups per run; setup_s is their median

    def __init__(self, mods, seed: int):
        self.mods = mods
        self.seed = seed
        self._blocks: list[list] = []
        for i in range(self.setup_blocks):
            self.block(i)
        self.setup()

    def block(self, i: int) -> list:
        while len(self._blocks) <= i:
            rng = random.Random(f"{self.name}:{self.seed}:{len(self._blocks)}")
            self._blocks.append(self.make_block(rng))
        return self._blocks[i]

    def fresh_default_cache(self):
        """Give the CLI a new default MspCache, as a new process would have."""
        msp = self.mods.msp
        if not hasattr(msp, "_DEFAULT_CACHE"):
            raise GuardError("mspkit.msp._DEFAULT_CACHE is gone: cannot make the op cold")
        msp._DEFAULT_CACHE = msp.MspCache()

    def setup(self):
        """Warm-up and prefill, after the first blocks are generated."""
        raise NotImplementedError

    def make_block(self, rng: random.Random) -> list:
        """One block of ops: tuples holding the op's size class and inputs."""
        raise NotImplementedError

    def prepare(self, op):
        """Untimed preparation of an op; returns the zero-argument call to time."""
        raise NotImplementedError

    def check(self, op, result) -> tuple[bool, str, int]:
        """Oracle verdict, output digest (or what is wrong) and output bytes."""
        raise NotImplementedError

    def sizes(self) -> dict:
        """Input sizes, for the run metadata."""
        raise NotImplementedError

    def prepare_oracles(self):
        pass

    def check_run(self, tracer=None) -> str | None:
        """A guard message when the cache state is not what the workload needs."""
        if self.cold and tracer is not None and tracer.counts["cache_hits"]:
            return f"{tracer.counts['cache_hits']} MspCache hits on a cold workload"
        return None


class GenCold(Workload):
    name = "gen-cold"
    cold = True
    KINDS = ("S", "B", "Bt", "L", "A")
    NS = tuple(range(14, 27))
    FORMATS = ("text", "json", "latex")

    @staticmethod
    def argv(kind, n, fmt):
        return ["msp", "gen", "--kind", kind, "--n", str(n), "--format", fmt, "--force"]

    def setup(self):
        for kind in self.KINDS:
            self.fresh_default_cache()
            run_cli(self.mods.cli.main, self.argv(kind, 8, "text"))

    def make_block(self, rng):
        ops = [(kind, n, rng.choice(self.FORMATS)) for kind in self.KINDS for n in self.NS]
        rng.shuffle(ops)
        return ops

    def prepare(self, op):
        self.fresh_default_cache()
        cli, argv = self.mods.cli, self.argv(*op)
        return lambda: run_cli(cli.main, argv)

    def prepare_oracles(self):
        st = self.mods.stirling
        top = max(self.NS)
        s1 = st.s1_table(top)
        self.tables = {"S": s1, "A": s1, "B": st.s2_table(top),
                       "Bt": st.assoc_s2_table(top), "L": st.lah_tables(top)[0]}

    def check(self, op, result):
        kind, n, fmt = op
        rc, text = result
        if rc != 0:
            return False, f"exit {rc}", len(text)
        table = self.tables[kind]
        want = {k: table.value(n, k) for k in range(1, n + 1)}
        ok = oracles.row_values_at_ones(text, fmt, kind, n) == want
        return ok, digest(text), len(text.encode("utf-8"))

    def sizes(self):
        return {"kinds": list(self.KINDS), "n": [min(self.NS), max(self.NS)],
                "formats": list(self.FORMATS), "block_ops": len(self.KINDS) * len(self.NS)}


class SeriesNumeric(Workload):
    name = "series-numeric"
    cold = True
    ORDERS = tuple(range(12, 25))
    # revert_comtet costs about 3x the other paths and 1 s at order 25
    COMTET_ORDERS = tuple(range(12, 19))
    COMMANDS = ("compose", "exp-transform", "revert-msp", "revert-oracle")
    COMTET_COMMANDS = ("revert-comtet", "revert-all")

    @staticmethod
    def argv(cmd, order, f, g):
        if cmd == "compose":
            return ["series", "compose", f"--f={_csv(f)}", f"--g={_csv(g)}", "--order", str(order)]
        if cmd == "exp-transform":
            return ["series", "exp-transform", f"--coeffs={_csv(f)}", "--order", str(order)]
        path = cmd.split("-", 1)[1]
        return ["series", "revert", f"--coeffs={_csv(f)}", "--order", str(order), "--path", path]

    def setup(self):
        rng = random.Random(f"{self.name}:{self.seed}:warm-up")
        for cmd in self.COMMANDS + self.COMTET_COMMANDS:
            self.fresh_default_cache()
            run_cli(self.mods.cli.main, self.argv(cmd, 6, random_egf(rng, 6), random_egf(rng, 6)))

    def make_block(self, rng):
        sizes = [(cmd, order) for cmd in self.COMMANDS for order in self.ORDERS]
        sizes += [(cmd, order) for cmd in self.COMTET_COMMANDS for order in self.COMTET_ORDERS]
        ops = [(cmd, order, random_egf(rng, order),
                random_egf(rng, order) if cmd == "compose" else None) for cmd, order in sizes]
        rng.shuffle(ops)
        return ops

    def prepare(self, op):
        self.fresh_default_cache()
        cli, argv = self.mods.cli, self.argv(*op)
        return lambda: run_cli(cli.main, argv)

    def check(self, op, result):
        cmd, order, f, g = op
        rc, text = result
        if rc != 0:
            return False, f"exit {rc}", len(text)
        payload = json.loads(text)
        if cmd == "compose":
            ok = [Fraction(v) for v in payload["composition"]] == oracles.compose(f, g, order)
        elif cmd == "exp-transform":
            rows = [[Fraction(v) for v in row] for row in payload["rows"]]
            ok = rows == oracles.exp_rows(f, order)
        else:
            inverse = [Fraction(v) for v in payload["inverse"]]
            ok = len(inverse) == order and oracles.is_inverse(f, inverse)
        return ok, digest(text), len(text.encode("utf-8"))

    def sizes(self):
        return {"orders": list(self.ORDERS), "comtet_orders": list(self.COMTET_ORDERS),
                "commands": list(self.COMMANDS + self.COMTET_COMMANDS),
                "block_ops": len(self.COMMANDS) * len(self.ORDERS)
                + len(self.COMTET_COMMANDS) * len(self.COMTET_ORDERS)}


class VerifySuite(Workload):
    name = "verify-suite"
    MAX_N = 15
    traced_blocks = 4
    setup_blocks = 16

    def setup(self):
        self.check_ids = self.mods.verify.check_ids()
        self.check_ms: dict[str, list[float]] = {cid: [] for cid in self.check_ids}
        cache = self.mods.msp.MspCache()
        for cid in self.check_ids:
            self.mods.verify.run_suite(self.MAX_N, selection=[cid], seed=self.seed, cache=cache)

    def make_block(self, rng):
        # one pass of the suite in registry order, all checks sharing one cache
        pass_seed = rng.randrange(2**32)
        return [(pass_seed, i, cid) for i, cid in enumerate(self.mods.verify.check_ids())]

    def prepare(self, op):
        pass_seed, index, cid = op
        if index == 0:
            self._pass_cache = self.mods.msp.MspCache()
        verify, cache = self.mods.verify, self._pass_cache
        return lambda: verify.run_suite(self.MAX_N, selection=[cid], seed=pass_seed, cache=cache)

    def check(self, op, result):
        cid = op[2]
        if len(result) != 1 or result[0].check_id != cid:
            return False, "", 0
        r = result[0]
        if r.passed:
            self.check_ms[cid].append(r.wall_ms)
        return r.passed, digest(f"{r.check_id}|{r.params}|{r.passed}|{r.counterexample}"), 0

    def sizes(self):
        return {"max_n": self.MAX_N, "checks": len(self.check_ids), "block_ops": len(self.check_ids)}


class TransformsWarm(Workload):
    name = "transforms-warm"
    setup_repeats = 5  # one set-up takes about 3 s
    NS = (12, 14, 16, 18, 20)
    NESTED_NS = tuple(range(8, 13))
    RECURSIVE = ("bell_recursive", "stirling_first_recursive")
    # (op label, function, convolution kind, smallest k, largest n, member
    # the identity rebuilds); compose_transform_second takes 0.9 s per
    # block at n = 20 alone, so it stops at 18
    FAMILIES = (
        ("compose_transform", "compose_transform", None, 2, 20, "S"),
        ("compose_transform_second", "compose_transform_second", None, 1, 18, "B"),
        ("second_from_first", "second_from_first", None, 1, 20, "B"),
        ("first_from_second_schloemilch", "first_from_second_schloemilch", None, 1, 20, "A"),
        ("convolution_B", "convolution_recurrence", "B", 1, 20, "B"),
        ("convolution_S", "convolution_recurrence", "S", 2, 20, "S"),
        ("convolution_Bt", "convolution_recurrence", "Bt", 1, 20, "Bt"),
        ("cor45_expand", "cor45_expand", None, 1, 20, "B"),
        ("eq68_invert", "eq68_invert", None, 1, 20, "Bt"),
    )
    # member that the other ops rebuild
    OTHER_MEMBERS = {"snk1_nested": "S", "bell_recursive": "B", "stirling_first_recursive": "S"}
    EXPLICIT = {"S": "stirling_first_explicit", "B": "bell_explicit",
                "Bt": "assoc_bell", "A": "lie_first"}

    def setup(self):
        msp = self.mods.msp
        self.cache = msp.MspCache()
        for n in range(1, max(self.NS) + 1):
            for k in range(1, n + 1):
                for fn in self.EXPLICIT.values():
                    getattr(msp, fn)(n, k, self.cache)
        self.prefilled = len(self.cache)
        if not self.prefilled:
            raise GuardError("the explicit members were not prefilled during set-up")
        # one untimed pass fills the members beyond n = 20 that the
        # Schloemilch-type expansions read
        for op in self.block(0):
            self.prepare(op)()
        self.warm_entries = len(self.cache)

    def make_block(self, rng):
        ops = [(label, n, k) for label, _, _, kmin, nmax, _ in self.FAMILIES
               for n in self.NS if n <= nmax for k in range(kmin, n + 1)]
        ops += [("snk1_nested", n, 1) for n in self.NESTED_NS]
        ops += [(name, n, rng.randint(1, n)) for name in self.RECURSIVE for n in self.NS]
        rng.shuffle(ops)
        return ops

    def prepare(self, op):
        label, n, k = op
        msp = self.mods.msp
        if label in self.RECURSIVE:
            # the recursive memo would make every repeat free
            cache = msp.MspCache()
            return lambda: getattr(msp, label)(n, k, cache)
        cache = self.cache
        if label == "snk1_nested":
            return lambda: msp.snk1_nested(n, cache)
        _, fn, kind, _, _, _ = self._family(label)
        if kind is not None:
            return lambda: getattr(msp, fn)(n, k, kind, cache)
        return lambda: getattr(msp, fn)(n, k, cache)

    def _family(self, label):
        return next(f for f in self.FAMILIES if f[0] == label)

    def check(self, op, result):
        label, n, k = op
        member = self.OTHER_MEMBERS.get(label) or self._family(label)[-1]
        want = getattr(self.mods.msp, self.EXPLICIT[member])(n, k, self.cache)
        return result == want, digest(str(result)), 0

    def check_run(self, tracer=None):
        if len(self.cache) != self.warm_entries:
            return (f"the shared cache grew from {self.warm_entries} to {len(self.cache)} "
                    "entries during timing: set-up did not warm it")
        return None

    def sizes(self):
        return {"n": [min(self.NS), max(self.NS)], "nested_n": [min(self.NESTED_NS), max(self.NESTED_NS)],
                "prefilled_entries": self.prefilled, "warm_entries": self.warm_entries,
                "block_ops": len(self.block(0))}


WORKLOADS = {w.name: w for w in (GenCold, SeriesNumeric, VerifySuite, TransformsWarm)}
