"""Command-line entry point.

Machine-readable JSON (and CSV or DOT where applicable) goes to
stdout; human-readable progress and tables go to stderr.  Exit code 0
means every requested verification passed, 1 means a verification
failed, 2 means the arguments were unusable.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from .functor import Ladder, check_recollement
from .grading import WeightSystem, _index
from .linalg import DEFAULT_MODULUS, check_modulus
from .mforacle import oracle_hom, probe_objects
from .qalg import COXETER_SUITES, coxeter_polynomial, dynkin_path_algebra, gamma_quiver, lambda_q, matrix_csv, nakayama
from .stable import StableObject, cuboid_objects, hom_dim, hom_table, parse_object
from .tilting import family, glue, hom_matrix, predicted_cartan, same_family, verify_tilting

MAX_CUBOID = 512


class UsageError(Exception):
    """Arguments a command cannot use; reported with exit code 2."""


@contextlib.contextmanager
def _reading(what: str):
    """Report a ValueError raised while reading an argument as unusable."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from None


def _cuboid_size(ws: WeightSystem) -> int:
    return math.prod(w - 1 for w in ws.p)


def _weights(text: str, force: bool) -> WeightSystem:
    with _reading(f"weights {text!r}"):
        ws = WeightSystem(tuple(int(t) for t in text.split(",")))
    size = _cuboid_size(ws)
    if size > MAX_CUBOID and not force:
        raise UsageError(f"cuboid size {size} exceeds the cap {MAX_CUBOID}; pass --force to override")
    return ws


def _non_negative(value: int, option: str) -> int:
    # a negative half-width leaves an empty window, which would check nothing
    if value < 0:
        raise UsageError(f"{option} must be non-negative, got {value}")
    return value


def _coordinate(ws: WeightSystem, text: str, name: str) -> int:
    """The 0-based index of a 1-based coordinate as typed, which is
    checked, and named in the error, against its 1-based range."""
    return _index(int(text), name, 1, ws.n) - 1


def _family_from_kind(ws: WeightSystem, kind: str):
    with _reading(f"family kind {kind!r}"):
        if kind in ("cuboid", "koszul"):
            return family(ws, kind)
        if kind.startswith("extended:"):
            arg = kind.split(":", 1)[1]
            subset = tuple(_coordinate(ws, t, "coordinate") for t in arg.split(",")) if arg else ()
            if len(set(subset)) < len(subset):
                raise ValueError(f"subset {arg} repeats a coordinate")
            return family(ws, "extended", subset=subset)
        if kind.startswith("replicated:"):
            return family(ws, "replicated", t=_coordinate(ws, kind.split(":", 1)[1], "coordinate t"))
    raise UsageError(f"unknown family kind {kind!r}")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def cmd_describe(args) -> int:
    ws = _weights(args.weights, args.force)
    specials = {k: v.to_json() for k, v in ws.specials().items()}
    dims = []
    probe = [ws.zero(), ws.c(), ws.s(), ws.delta(), ws.omega()] + [ws.x(i) for i in range(ws.n)]
    seen = set()
    for a in probe:
        if a in seen:
            continue
        seen.add(a)
        dims.append({"degree": a.to_json(), "dim_R": a.dim_r(), "dim_S": a.dim_s()})
    size = _cuboid_size(ws)
    _emit({"weights": ws.to_json(), "specials": specials, "dims": dims, "cuboid_size": size})
    print(f"weights {ws}: cuboid size {size}, delta = {ws.delta()}", file=sys.stderr)
    return 0


def cmd_tilt(args) -> int:
    ws = _weights(args.weights, args.force)
    fam = _family_from_kind(ws, args.kind)
    _emit(fam.to_json())
    print(f"{fam.kind} family over {ws}: {fam.size} summands", file=sys.stderr)
    return 0


def cmd_endo(args) -> int:
    ws = _weights(args.weights, args.force)
    fam = _family_from_kind(ws, args.kind)
    mat = hom_matrix(fam)
    pred = predicted_cartan(fam)
    diff = (mat - pred.cartan).tolist()
    equal = bool((mat == pred.cartan).all())
    if args.csv:
        sys.stdout.write(matrix_csv(fam.labels, mat))
    else:
        _emit(
            {
                "family": fam.to_json(),
                "hom_matrix": mat.tolist(),
                "predicted_cartan": pred.cartan.tolist(),
                "predicted_algebra": pred.name,
                "diff": diff,
                "equal": equal,
            }
        )
    print(f"endomorphism matrix vs Cartan of {pred.name}: {'equal' if equal else 'DIFFERENT'}", file=sys.stderr)
    return 0 if equal else 1


def cmd_verify(args) -> int:
    ws = _weights(args.weights, args.force)
    fam = _family_from_kind(ws, args.kind)
    window = None
    if args.window is not None:
        half = _non_negative(args.window, "--window")
        window = (-half, half)
    report = verify_tilting(fam, window)
    print(report.to_json())
    print(f"verify {fam.kind} over {ws}: {'pass' if report.passed else 'FAIL'}", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_ladder(args) -> int:
    ws = _weights(args.weights, args.force)
    with _reading(f"split {args.split}"):
        ladder = Ladder(ws, args.split)
    report = check_recollement(ladder, level_bound=_non_negative(args.level_bound, "--level-bound"))
    print(report.to_json())
    print(f"ladder over {ws} split {report.split}: {'pass' if report.passed else 'FAIL'}", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_glue(args) -> int:
    ws = _weights(args.weights, args.force)
    if ws.p != (3, 4):
        raise UsageError("the glue workflow is wired for weights 3,4")
    ladder = Ladder(ws, 3)
    results = {}
    ok = True
    for kind, k1, k2 in (("cuboid", 2, 0), ("koszul", 1, -1)):
        if args.variant not in (kind, "both"):
            continue
        fam1 = family(ladder.emb1.source, kind)
        fam2 = family(ladder.emb2.source, kind)
        glued, report = glue(ladder, fam1, fam2, k1, k2)
        match = same_family(glued, family(ws, kind))
        results[kind] = {
            "summands": list(glued.labels),
            "obstruction_vanishes": report.tilting,
            f"equals_{kind}": match,
        }
        ok = ok and report.tilting and match
    _emit(results)
    print(f"glue workflows over {ws}: {'pass' if ok else 'FAIL'}", file=sys.stderr)
    return 0 if ok else 1


def cmd_coxeter(args) -> int:
    payload = []
    ok = True
    for key, algebras in COXETER_SUITES[args.suite]():
        polys = [(name, coxeter_polynomial(alg)) for name, alg in algebras]
        equal = all(p == polys[0][1] for _, p in polys)
        ok = ok and equal
        payload.append(
            {
                "case": list(key),
                "polynomials": [{"name": n, "coeffs": list(p.coeffs)} for n, p in polys],
                "equal": equal,
            }
        )
        print(f"{key}: {'equal' if equal else 'DIFFERENT'}  {polys[0][1]}", file=sys.stderr)
    _emit({"suite": args.suite, "cases": payload, "all_equal": ok})
    return 0 if ok else 1


def cmd_oracle_check(args) -> int:
    ws = _weights(args.weights, args.force)
    with _reading(f"modulus {args.modulus!r}"):
        q = int(args.modulus)
        check_modulus(q)
    if args.pair:
        with _reading("pair"):
            a = parse_object(ws, args.pair[0])
            b = parse_object(ws, args.pair[1])
        h = hom_dim(a, b)
        o = oracle_hom(a.canonical(), b.canonical(), 0, q)
        _emit({"pair": [str(a), str(b)], "calculus": h, "oracle": o, "agree": h == o})
        print(f"Hom({a}, {b}): calculus {h}, oracle {o}", file=sys.stderr)
        return 0 if h == o else 1
    cub = cuboid_objects(ws)
    half = _non_negative(args.shift_window, "--shift-window")
    shifts = range(-half, half + 1)
    checked = disagreements = 0
    bad = []
    probes = probe_objects(ws)
    # one table answers every (probe, b) pair at every shift:
    # Hom(probe[m], b) = Hom(probe, b[-m])
    m0, nonzero = hom_table(probes, cub)
    for probe, m0_row, nonzero_row in zip(probes, m0.tolist(), nonzero.tolist()):
        for m in shifts:
            a = StableObject(ws, probe.ell, probe.twist, m)
            for b, e, one in zip(cub, m0_row, nonzero_row):
                h = int(one and e == -m)
                checked += 1
                o = oracle_hom(a.canonical(), b, 0, q)
                if h != o:
                    disagreements += 1
                    bad.append({"pair": [str(a), str(b)], "calculus": h, "oracle": o})
    payload = {
        "weights": ws.to_json(),
        "modulus": q,
        "checked": checked,
        "disagreements": disagreements,
        # the calculus decides every pair
        "unknown": 0,
        "unknown_rate": 0.0,
        "failures": bad,
    }
    _emit(payload)
    print(
        f"oracle audit over {ws}: {checked} pairs, {disagreements} disagreements, 0 unknown",
        file=sys.stderr,
    )
    return 0 if disagreements == 0 else 1


def cmd_quiver(args) -> int:
    descriptor = args.algebra
    with _reading(f"algebra {descriptor!r}"):
        if descriptor.startswith("lambda:"):
            ws = _weights(args.weights, args.force)
            qvec = tuple(int(t) for t in descriptor.split(":", 1)[1].split(","))
            alg = lambda_q(ws, qvec)
        elif descriptor.startswith("gamma:"):
            ws = _weights(args.weights, args.force)
            alg = gamma_quiver(ws, _coordinate(ws, descriptor.split(":", 1)[1], "coordinate t"))
        elif descriptor.startswith("nakayama:"):
            n, m = (int(t) for t in descriptor.split(":", 1)[1].split(","))
            alg = nakayama(n, m)
        elif descriptor.startswith("dynkin:"):
            letter = descriptor.split(":", 1)[1]
            alg = dynkin_path_algebra(letter[:1], int(letter[1:]))
        else:
            raise UsageError(f"unknown algebra descriptor {descriptor!r}")
    if args.dot:
        sys.stdout.write(alg.to_dot())
    elif args.csv:
        sys.stdout.write(alg.cartan_csv())
    else:
        _emit(alg.to_json())
    print(f"{alg.name}: {alg.size} vertices, {len(alg.arrows)} arrows, {len(alg.relations)} relations", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bpsing", description=__doc__)
    parser.add_argument("--force", action="store_true", help="override the cuboid size cap")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weights(p):
        p.add_argument("-p", "--weights", required=True, help="comma-separated weights, e.g. 3,4")

    def add_kind(p):
        p.add_argument("--kind", default="cuboid", help="cuboid | koszul | extended:I | replicated:t (1-based)")

    p = sub.add_parser("describe", help="special elements and graded dimensions")
    add_weights(p)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("tilt", help="list a tilting family")
    add_weights(p)
    add_kind(p)
    p.set_defaults(func=cmd_tilt)

    p = sub.add_parser("endo", help="endomorphism matrix against the predicted Cartan")
    add_weights(p)
    add_kind(p)
    p.add_argument("--csv", action="store_true", help="emit the Hom matrix as CSV")
    p.set_defaults(func=cmd_endo)

    p = sub.add_parser("verify", help="rigidity and exceptionality report")
    add_weights(p)
    add_kind(p)
    p.add_argument("--window", type=int, help="half-width of the shift window (default: 2n + 4)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ladder", help="recollement and periodicity report")
    add_weights(p)
    p.add_argument("--split", type=int, required=True, help="the split value p_{1,n}")
    p.add_argument("--level-bound", type=int, default=2)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("glue", help="gluing workflows for weights 3,4")
    add_weights(p)
    p.add_argument("--variant", default="both", choices=("cuboid", "koszul", "both"))
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("coxeter", help="derived-invariant polynomial suites")
    p.add_argument("--suite", required=True, choices=tuple(COXETER_SUITES))
    p.set_defaults(func=cmd_coxeter)

    p = sub.add_parser("oracle-check", help="audit the Hom calculus against the factorization oracle")
    add_weights(p)
    p.add_argument("--pair", nargs=2, metavar=("A", "B"), help='audit one pair, e.g. --pair "U[2,3]" "U[1,1](1,0;-1)[2]"')
    p.add_argument("--shift-window", type=int, default=2)
    p.add_argument("--modulus", default=str(DEFAULT_MODULUS), help=f"a prime below 2**31 (default: {DEFAULT_MODULUS})")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("quiver", help="emit a quiver presentation")
    p.add_argument("-p", "--weights", default="3,4")
    p.add_argument("--algebra", required=True, help="lambda:q1,..|gamma:t|nakayama:n,m|dynkin:E6")
    output = p.add_mutually_exclusive_group()
    output.add_argument("--dot", action="store_true")
    output.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_quiver)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
