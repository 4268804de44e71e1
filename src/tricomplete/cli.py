"""Command-line front end.

Every command emits a report, as indented text or as JSON
(``--format structured``); exact rationals are always rendered as strings
like ``1/5``, never floats.  Exit codes: 0 completed (affirmative where
boolean), 1 negative verdict, 2 inconclusive, 3 usage or validation error.
Fuzz commands require an explicit seed; reports are byte-stable for fixed
inputs and seed.  On a good metric what they fuzz are theorems, so a hit
there is an internal error (exit 3), never a negative verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from .rmodule import Ring
from .complexes import PreconditionError, ValidationError
from .metric import (
    GoodMetric,
    cartesian_invariance_check,
    check_good_axioms,
    equivalent,
    first_shift_violation,
    in_ball,
    length,
    standard_metric,
    strong_triangle_check,
)
from .cauchy import colimit, is_cauchy
from .completion import (
    Verdict,
    complete,
    has_bounded_injective_resolution,
    in_S,
    is_perfect,
    sing_hom,
    syzygy_class,
)
from .randomgen import Sampler
from .workspace import Workspace, WorkspaceError, parse_workspace

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


class TheoremViolation(RuntimeError):
    """A fuzz hit on a good metric: extension closure, the strong triangle
    inequality and cartesian invariance are theorems there, so the hit is
    a library fault."""


def _frac(x: Fraction) -> str:
    return str(x)


def _render_text(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append("%s%s:" % (pad, k))
                lines.extend(_render_text(v, indent + 1))
            else:
                if isinstance(v, (dict, list)):
                    v = "(none)"
                lines.append("%s%s: %s" % (pad, k, v))
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append("%s-" % pad)
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append("%s- %s" % (pad, v))
    else:
        lines.append("%s%s" % (pad, obj))
    return lines


def _emit(report: dict, fmt: str) -> None:
    if fmt == "structured":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(_render_text(report)) + "\n")


def _parse_window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise WorkspaceError("window must look like a..b, got %r" % text)
    try:
        return int(lo), int(hi)
    except ValueError:
        raise WorkspaceError("window bounds must be integers, got %r" % text)


def _parse_ring(text: str) -> Ring:
    try:
        p, _, n = text.partition(",")
        return Ring(int(p), int(n))
    except ValueError as e:
        raise WorkspaceError("bad ring %r: %s" % (text, e))


class _Ctx:
    def __init__(self, args):
        self.args = args
        self.workspace: Workspace | None = None
        if getattr(args, "workspace", None):
            self.workspace = parse_workspace(args.workspace)

    def metric(self, name: str) -> GoodMetric:
        if self.workspace is not None:
            return self.workspace.metric(name)
        return standard_metric(name)

    def ring(self) -> Ring:
        if self.workspace is not None:
            return self.workspace.ring
        return _parse_ring(getattr(self.args, "ring", "2,2"))

    def need(self, kind: str, name: str):
        if self.workspace is None:
            raise WorkspaceError("command needs a workspace file (-w) defining %r" % name)
        return self.workspace.get(kind, name)


def _certificate_report(cert) -> dict:
    rep = {
        "metric": cert.metric,
        "horizon": cert.horizon,
        "levels": cert.levels,
        "verdict": cert.verdict,
        "conclusive": cert.conclusive,
        "thresholds": {str(n): cert.thresholds[n] for n in sorted(cert.thresholds)},
        "sup-lengths": {str(i): _frac(cert.sup_lengths[i]) for i in sorted(cert.sup_lengths)},
    }
    if cert.violation is not None:
        n, i, j, ln = cert.violation
        rep["violation"] = {"level": n, "i": i, "j": str(j), "length": _frac(ln)}
    if cert.note:
        rep["note"] = cert.note
    return rep


def _table_report(table) -> dict:
    return {
        "window": "%d..%d" % table.window,
        "horizon": table.horizon,
        "conclusive": table.conclusive,
        "entries": {str(i): {"module": str(mod), "stable-from": k}
                    for i, (mod, k) in sorted(table.entries.items())},
        "inconclusive-degrees": list(table.inconclusive),
        "support": table.support(),
    }


def cmd_length(ctx: _Ctx, args) -> int:
    f = ctx.need("map", args.map)
    m = ctx.metric(args.metric)
    val = length(f, m)
    _emit({"command": "length", "map": args.map, "metric": m.display_name(),
           "length": _frac(val)}, args.format)
    return EXIT_OK


def cmd_ball(ctx: _Ctx, args) -> int:
    x = ctx.need("complex", args.complex)
    m = ctx.metric(args.metric)
    verdict = in_ball(x, args.level, m)
    _emit({"command": "ball", "complex": args.complex, "metric": m.display_name(),
           "level": args.level, "in-ball": verdict}, args.format)
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_cauchy_check(ctx: _Ctx, args) -> int:
    t = ctx.need("tower", args.tower)
    m = ctx.metric(args.metric)
    cert = is_cauchy(t, m, args.horizon, args.levels)
    _emit({"command": "cauchy-check", "tower": args.tower,
           "certificate": _certificate_report(cert)}, args.format)
    if cert.verdict == "cauchy":
        return EXIT_OK
    if cert.verdict == "not_cauchy":
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


def cmd_colimit(ctx: _Ctx, args) -> int:
    t = ctx.need("tower", args.tower)
    m = ctx.metric(args.metric)
    cert = is_cauchy(t, m, args.horizon, args.levels)
    table = colimit(t, _parse_window(args.window), args.horizon, cert)
    _emit({"command": "colimit", "tower": args.tower, "metric": m.display_name(),
           "certificate-verdict": cert.verdict, "table": _table_report(table)}, args.format)
    return EXIT_OK if table.conclusive else EXIT_INCONCLUSIVE


def cmd_in_s(ctx: _Ctx, args) -> int:
    t = ctx.need("tower", args.tower)
    m = ctx.metric(args.metric)
    window = _parse_window(args.window) if args.window else None
    c = complete(t, m, horizon=args.horizon, levels=args.levels, window=window)
    verdict = in_S(c)
    _emit({"command": "in-s", "tower": args.tower, "metric": m.display_name(),
           "certificate-verdict": c.certificate.verdict,
           "colimit-support": c.table.support(),
           "in-s": verdict.value}, args.format)
    if verdict is Verdict.YES:
        return EXIT_OK
    if verdict is Verdict.NO:
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


def cmd_is_perfect(ctx: _Ctx, args) -> int:
    x = ctx.need("complex", args.complex)
    verdict = is_perfect(x)
    _emit({"command": "is-perfect", "complex": args.complex, "perfect": verdict}, args.format)
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_inj_bounded(ctx: _Ctx, args) -> int:
    x = ctx.need("complex", args.complex)
    verdict = has_bounded_injective_resolution(x)
    _emit({"command": "inj-bounded", "complex": args.complex,
           "bounded-injective-resolution": verdict}, args.format)
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_sing_class(ctx: _Ctx, args) -> int:
    x = ctx.need("complex", args.complex)
    cls = syzygy_class(x)
    _emit({"command": "sing-class", "complex": args.complex,
           "module": str(cls.module), "shift": cls.shift,
           "zero-class": cls.is_zero()}, args.format)
    return EXIT_OK


def cmd_sing_hom(ctx: _Ctx, args) -> int:
    a = syzygy_class(ctx.need("complex", args.complex1))
    b = syzygy_class(ctx.need("complex", args.complex2))
    dim = sing_hom(a, b)
    _emit({"command": "sing-hom", "source": args.complex1, "target": args.complex2,
           "class-source": {"module": str(a.module), "shift": a.shift},
           "class-target": {"module": str(b.module), "shift": b.shift},
           "dimension": dim}, args.format)
    return EXIT_OK


def cmd_metric_equiv(ctx: _Ctx, args) -> int:
    m1 = ctx.metric(args.metric1)
    m2 = ctx.metric(args.metric2)
    rep = equivalent(m1, m2, levels=args.levels, search_bound=args.bound)
    out = {"command": "metric-equiv", "metric1": rep.metric1, "metric2": rep.metric2,
           "equivalent": rep.equivalent, "levels": rep.levels}
    if rep.equivalent:
        out["witness"] = {str(n): rep.witness[n] for n in sorted(rep.witness)}
    else:
        out["fail-level"] = rep.fail_level
        out["separating-family"] = [
            {"direction": d, "inner-ball": mm, "stalk-degree": deg}
            for d, mm, deg in rep.separating]
    _emit(out, args.format)
    return EXIT_OK if rep.equivalent else EXIT_NEGATIVE


def cmd_axioms_fuzz(ctx: _Ctx, args) -> int:
    m = ctx.metric(args.metric)
    ring = ctx.ring()
    rep = check_good_axioms(m, ring, levels=args.levels, samples=args.samples, seed=args.seed)
    if rep.fuzz_violations and not rep.shift_violations:
        k, n, supp = rep.fuzz_violations[0]
        raise TheoremViolation("extension violation at sample %d on good metric %s: level %d, "
                               "cone support %s" % (k, rep.metric, n, supp))
    out = {"command": "axioms-fuzz", "metric": rep.metric, "ring": str(ring),
           "seed": args.seed, "levels-checked": rep.levels_checked,
           "fuzz-samples": rep.fuzz_samples, "ok": rep.ok,
           "shift-violations": [{"level": n, "shift": t, "witness-degree": deg}
                                for n, t, deg in rep.shift_violations],
           "extension-violations": [{"level": n, "cone-support": supp}
                                    for _, n, supp in rep.fuzz_violations]}
    _emit(out, args.format)
    return EXIT_OK if rep.ok else EXIT_NEGATIVE


def cmd_strong_triangle_fuzz(ctx: _Ctx, args) -> int:
    m = ctx.metric(args.metric)
    ring = ctx.ring()
    rng = random.Random(args.seed)
    sampler = Sampler(ring, rng)
    good = first_shift_violation(m) is None

    def hit(kind: str, k: int, lengths: list) -> dict:
        if good:
            raise TheoremViolation("%s violation at sample %d on good metric %s: lengths %s"
                                   % (kind, k, m.display_name(), ", ".join(lengths)))
        return {"sample": k, "lengths": lengths}

    violations = []
    for k in range(args.samples):
        f, g = sampler.composable_pair(-2, 2, max_blocks=1)
        rep = strong_triangle_check(f, g, m)
        if not rep.ok:
            violations.append(hit("triangle", k, [_frac(rep.length_f), _frac(rep.length_g),
                                                  _frac(rep.length_gf)]))
    cart_violations = []
    for k in range(args.cartesian_samples):
        f, h = sampler.corner(-2, 2, max_blocks=1)
        rep = cartesian_invariance_check(f, h, m)
        if not rep.ok:
            cart_violations.append(hit("cartesian", k, [_frac(rep.length_f), _frac(rep.length_g)]))
    ok = not violations and not cart_violations
    _emit({"command": "strong-triangle-fuzz", "metric": m.display_name(), "ring": str(ring),
           "seed": args.seed, "samples": args.samples,
           "cartesian-samples": args.cartesian_samples, "ok": ok,
           "triangle-violations": violations,
           "cartesian-violations": cart_violations}, args.format)
    return EXIT_OK if ok else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tricomplete",
        description="Good metrics, Cauchy towers and completions on bounded "
                    "derived categories over F_p[x]/(x^n).")
    p.add_argument("-w", "--workspace", help="workspace file defining named objects")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        sp = sub.add_parser(name, **kw)
        # by name: main looks the handler up per call, not once per parser,
        # so a parser built while a handler is patched still names cmd_*
        sp.set_defaults(handler="cmd_" + name.replace("-", "_"))
        # accept the global options after the subcommand too
        sp.add_argument("--format", choices=("text", "structured"),
                        default=argparse.SUPPRESS)
        sp.add_argument("-w", "--workspace", default=argparse.SUPPRESS)
        return sp

    sp = add("length", help="length of a named chain map")
    sp.add_argument("map")
    sp.add_argument("--metric", required=True)

    sp = add("ball", help="ball membership of a named complex")
    sp.add_argument("complex")
    sp.add_argument("level", type=int)
    sp.add_argument("--metric", required=True)

    def tower_command(name, help):
        sp = add(name, help=help)
        sp.add_argument("tower")
        sp.add_argument("--metric", required=True)
        sp.add_argument("--horizon", type=int, default=12)
        sp.add_argument("--levels", type=int, default=6)
        return sp

    tower_command("cauchy-check", "certify a tower Cauchy")
    sp = tower_command("colimit", "degreewise colimit table of a tower")
    sp.add_argument("--window", default="-2..2")
    sp = tower_command("in-s", "membership in the triangulated completion")
    sp.add_argument("--window", default=None)
    no_effect = "accepted; no effect until compact support is decided with a witness (ROADMAP item 2)"
    sp.add_argument("--functor-samples", type=int, default=2, help=no_effect)
    sp.add_argument("--seed", type=int, default=0, help=no_effect)

    sp = add("is-perfect", help="perfection of a named complex")
    sp.add_argument("complex")

    sp = add("inj-bounded",
             help="bounded injective resolution test (R is self-injective: "
                  "the same as perfection)")
    sp.add_argument("complex")

    sp = add("sing-class", help="singularity-category class")
    sp.add_argument("complex")

    sp = add("sing-hom", help="Hom dimension in the singularity category")
    sp.add_argument("complex1")
    sp.add_argument("complex2")

    sp = add("metric-equiv",
             help="equivalence of two good metrics, decided for every level; "
                  "--levels sets the length of the witness table and --bound "
                  "only sizes the separating probes")
    sp.add_argument("metric1")
    sp.add_argument("metric2")
    sp.add_argument("--levels", type=int, default=20)
    sp.add_argument("--bound", type=int, default=200)

    def fuzz_command(name, help, samples, option, default):
        sp = add(name, help=help)
        sp.add_argument("metric")
        sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--samples", type=int, default=samples)
        sp.add_argument(option, type=int, default=default)
        sp.add_argument("--ring", default="2,2", help="p,n when no workspace is given")

    fuzz_command("axioms-fuzz", "good-metric axiom check with fuzzing", 200, "--levels", 50)
    fuzz_command("strong-triangle-fuzz",
                 "strong triangle inequality and cartesian invariance fuzz",
                 500, "--cartesian-samples", 200)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process.  Parsing never mutates it
    and it holds handler names, not functions, so calls share nothing."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        ctx = _Ctx(args)
        return globals()[args.handler](ctx, args)
    except (WorkspaceError, ValidationError, PreconditionError, ValueError, OSError) as e:
        return _error(args, "usage", str(e))
    except Exception as e:
        # a crash must never read as exit 1, the negative verdict
        return _error(args, "internal", "internal error: %s: %s" % (type(e).__name__, e))


def _error(args, kind: str, message: str) -> int:
    """Report an error after parsing: an error line on stderr and, under
    --format structured, an error report on stdout too.  Always exit 3."""
    sys.stderr.write("error: %s\n" % message)
    if args.format == "structured":
        _emit({"command": args.command, "error": {"kind": kind, "message": message}}, args.format)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
