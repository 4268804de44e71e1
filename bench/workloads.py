"""The benchmark's three workloads.

Each workload is a closed loop with one client: the next item starts only
after the previous verdict returns.  An item is drawn from a fixed pool by
its index; the run's seed picks which indices run and in what order, so
every item that can run has a reference digest recorded in
``bench/reference/``.  A workload provides

- ``pool``: the number of items there are to draw from;
- ``build(index)``: the item's inputs, made during set-up;
- ``run(inputs)``: the verdicts, the only part that is timed;
- ``render(index, result)``: the canonical text that is digested;
- ``check(index, inputs, result)``: an oracle independent of the
  digest, returning a reason when the item fails, else None;
- ``known_defects()``: pool indices known to fail on the recorded code.

Library entry points are always reached through module attributes
(``metric.strong_triangle_check``), so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shlex
from pathlib import Path

from tricomplete import cli, completion, complexes, metric, randomgen, rmodule

HERE = Path(__file__).resolve().parent


class Raised:
    """An exception that escaped an item; it always fails the item."""

    def __init__(self, exc: BaseException):
        self.text = "raised %s: %s" % (type(exc).__name__, exc)


class Workload:
    def known_defects(self) -> set[int]:
        return set()


class MetricFuzz(Workload):
    """Strong triangle inequality and cartesian invariance over F_2[x]/(x^2).

    Criterion-2 shape: window -2..2, one Jordan block per degree, metrics
    i, ii, iii in turn, five composable pairs to every two corners.
    """

    name = "metric-fuzz"
    pool = 480

    def __init__(self):
        self.ring = rmodule.Ring(2, 2)
        self.metrics = {"i": metric.metric_i(), "ii": metric.metric_ii(), "iii": metric.metric_iii()}

    @staticmethod
    def shape(index: int) -> tuple[str, str]:
        kind = "corner" if (index // 3) % 7 >= 5 else "pair"
        return kind, ("i", "ii", "iii")[index % 3]

    def build(self, index: int):
        kind, name = self.shape(index)
        sampler = randomgen.Sampler(self.ring, random.Random("metric-fuzz/%d" % index))
        maps = sampler.corner(-2, 2, max_blocks=1) if kind == "corner" else \
            sampler.composable_pair(-2, 2, max_blocks=1)
        return kind, self.metrics[name], maps

    def run(self, inputs):
        kind, m, (f, g) = inputs
        if kind == "corner":
            rep = metric.cartesian_invariance_check(f, g, m)
            return rep.ok, (rep.length_f, rep.length_g)
        rep = metric.strong_triangle_check(f, g, m)
        return rep.ok, (rep.length_f, rep.length_g, rep.length_gf)

    def render(self, index: int, result) -> str:
        kind, name = self.shape(index)
        ok, lengths = result
        return "%s %s ok=%s lengths=%s" % (kind, name, ok, ",".join(str(x) for x in lengths))

    def check(self, index: int, inputs, result) -> str | None:
        ok, lengths = result
        if any(x < 0 or (x and x.numerator != 1) for x in lengths):
            return "length outside {0} u {1/n}"
        kind = inputs[0]
        holds = lengths[0] == lengths[1] if kind == "corner" else lengths[2] <= max(lengths[:2])
        if not holds:
            return "%s inequality fails for lengths %s" % (kind, lengths)
        if not ok:
            return "report says not ok although the inequality holds"
        return None


class PerfectionSweep(Workload):
    """Resolution-side verdicts on criterion-5 complexes (amplitude <= 4, at
    most three blocks per degree): two items in three over F_2[x]/(x^2),
    one in three over F_3[x]/(x^4)."""

    name = "perfection-sweep"
    pool = 105

    def __init__(self):
        self.rings = [rmodule.Ring(2, 2), rmodule.Ring(3, 4)]
        self.k_stalks = [complexes.module_complex(rmodule.RModule(r, (1,)), 0) for r in self.rings]

    def build(self, index: int):
        slot = 1 if index % 3 == 2 else 0
        rng = random.Random("perfection-sweep/%d" % index)
        sampler = randomgen.Sampler(self.rings[slot], rng)
        while True:
            lo = rng.randint(-4, 0)
            x = sampler.complex(lo, lo + rng.randint(0, 4), max_blocks=3)
            if not x.is_zero():
                return x, self.k_stalks[slot]

    def run(self, inputs):
        x, k = inputs
        base = (x.max_degree - x.min_degree) + 3 + max(0, -x.max_degree)
        perfect = completion.is_perfect(x)
        inj = completion.has_bounded_injective_resolution(x)
        cls = completion.syzygy_class(x)
        ext = (complexes.derived_hom(x, k, base), complexes.derived_hom(x, k, base + 1))
        return perfect, inj, cls, ext, completion.sing_hom(cls, cls)

    def render(self, index: int, result) -> str:
        perfect, inj, cls, ext, shom = result
        return "perfect=%s inj_bounded=%s class=%s@%d ext=%d,%d sing_end=%d" % (
            perfect, inj, cls.module, cls.shift, ext[0], ext[1], shom)

    def check(self, index: int, inputs, result) -> str | None:
        perfect, inj, cls, ext, shom = result
        probe = ext[0] == 0
        if probe != (ext[1] == 0):
            return "Ext probe hits in only one of two consecutive degrees"
        if not perfect == inj == probe:
            return "is_perfect, inj-boundedness and the Ext probe disagree"
        if cls.is_zero() != perfect:
            return "singularity class vanishes exactly for perfect complexes"
        # a complex with cohomology in one degree is that module, up to shift,
        # and the syzygy functor preserves stable endomorphisms
        x = inputs[0]
        support = complexes.cohomology_support(x)
        if len(support) == 1:
            module = complexes.cohomology(x, next(iter(support))).strip_free()
            want = 0 if module.is_zero() else rmodule.stable_hom(module, module)[0]
            if shom != want:
                return "sing_hom(cls, cls) = %d but stable End of H = %d" % (shom, want)
        return None


class CliSession(Workload):
    """A fixed script of tricomplete commands run in-process through
    cli.main over a committed workspace, re-parsed by every command."""

    name = "cli-session"

    def __init__(self):
        # relative to the repository root, the worker's working directory,
        # so that no report depends on where the checkout lives
        self.paths = {"ws": "bench/cli_session/workspace.txt",
                      "bad_ws": "bench/cli_session/bad_workspace.txt"}
        self.script = []  # (expected exit code, known defect, argv)
        for line in (HERE / "cli_session" / "script.txt").read_text().splitlines():
            tokens = shlex.split(line, comments=True)
            if not tokens:
                continue
            known = tokens[1] == "KNOWN-DEFECT"
            argv = [t.format(**self.paths) for t in tokens[2 if known else 1:]]
            self.script.append((int(tokens[0]), known, argv))
        self.pool = len(self.script)
        self.modules, self.towers, self.ring_n = self._fixture_shapes(HERE / "cli_session" / "workspace.txt")

    @staticmethod
    def _fixture_shapes(path: Path):
        """Jordan types and truncation towers, read from the fixture text
        itself rather than through the workspace parser under test."""
        modules, towers, ring_n, tower = {}, {}, None, None
        for line in path.read_text().splitlines():
            tokens = line.split("#", 1)[0].split()
            if not tokens:
                continue
            if tokens[0] == "RING":
                ring_n = int(tokens[2])
            elif tokens[0] == "MODULE":
                modules[tokens[1]] = tuple(sorted((int(j) for j in tokens[2:]), reverse=True))
            elif tokens[0] == "TOWER":
                tower = tokens[1]
            elif tokens[0] == "TAIL" and tokens[1] == "truncation":
                towers[tower] = tokens[2]
        return modules, towers, ring_n

    def known_defects(self) -> set[int]:
        return {i for i, (_, known, _) in enumerate(self.script) if known}

    def build(self, index: int):
        return self.script[index]

    def run(self, inputs):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(inputs[2]))
        return code, out.getvalue(), err.getvalue()

    def render(self, index: int, result) -> str:
        code, out, err = result
        return "exit %s\n%s--- stderr\n%s" % (code, out, err)

    def check(self, index: int, inputs, result) -> str | None:
        expected, _, argv = inputs
        code, out, _ = result
        if code != expected:
            return "exit code %s, documented %d" % (code, expected)
        return self._semantic_check(argv, out)

    def _semantic_check(self, argv: list[str], out: str) -> str | None:
        if argv[-4:] == ["length", "f", "--metric", "i"]:
            # README's worked example, in the default text format
            return None if "length: 1/5" in out.splitlines() else "README example length f != 1/5"
        command = next((a for a in argv if a in ("cauchy-check", "colimit")), None)
        if command is None or "structured" not in argv:
            return None
        tower = argv[argv.index(command) + 1]
        if tower not in self.towers or argv[argv.index("--metric") + 1] != "i":
            return None
        blocks = self.modules[self.towers[tower]]
        free = all(j == self.ring_n for j in blocks)
        report = json.loads(out)
        if command == "cauchy-check":
            cert = report["certificate"]
            want = {str(n): 1 if free else n for n in range(1, cert["levels"] + 1)}
            return None if cert["thresholds"] == want else \
                "truncation-tower thresholds %s, want M(n) = %s" % (cert["thresholds"], "1" if free else "n")
        table = report["table"]
        rendered = "+".join("[%d]" % j for j in blocks)
        entries = {i: e["module"] for i, e in table["entries"].items() if e["module"] != "0"}
        if table["support"] != [0] or entries != {"0": rendered}:
            return "colimit %s is not the module %s in degree 0" % (entries, rendered)
        return None


WORKLOADS = {w.name: w for w in (MetricFuzz, PerfectionSweep, CliSession)}
