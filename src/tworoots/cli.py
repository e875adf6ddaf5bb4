"""Command line front end.

Subcommands cover the main operations: classification, root and basis
listings, orbit tables, highest 2-roots, expansion over the canonical
basis, word action matrices, the module decomposition, kernel orders,
arc pictures, and the self-check suites.  Every subcommand except
verify accepts --json for machine readable output; plain text is the
default.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagram import (Diagram, TypeClass, classify, diagram_to_json,
                      path_diagram, weyl_order, y_diagram)
from .forms import (affine_radical_witness, decompose_s2v, kernel_orders,
                    norm2_witness)
from .orbits import closed_form_highest, orbit_tables
from .roots import paper_labels, positive_roots, simple_root
from .skein import render_skein
from .symsquare import canonical_basis, sign_coherent
from .verify import SUITES, run_suites


def add_diagram_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--y", nargs=3, type=int, metavar=("A", "B", "C"),
                   help="fork diagram with arms A, B, C")
    g.add_argument("--path", type=int, metavar="N", help="path with N vertices")


def get_diagram(args) -> Diagram:
    if args.y is not None:
        return y_diagram(*args.y)
    return path_diagram(args.path)


def get_labels(args, d: Diagram):
    num = getattr(args, "paper_numbering", None)
    if num is None or num == "internal":
        return None
    return paper_labels(d, num)


def fmt_root(r, labels=None) -> str:
    terms = []
    for v, c in enumerate(r):
        if not c:
            continue
        lab = labels[v] if labels else str(v)
        key = (0, int(lab)) if lab.isdigit() else (1, lab)
        terms.append((key, ("a%s" % lab) if c == 1 else "%da%s" % (c, lab)))
    return "+".join(t for _k, t in sorted(terms)) or "0"


def fmt_pair(pair, labels=None) -> str:
    return "%s v %s" % (fmt_root(pair[0], labels), fmt_root(pair[1], labels))


def emit(args, d: Diagram, payload: dict, lines) -> None:
    """Print the payload, with d under "diagram", as one JSON line under
    --json, and the text lines otherwise."""
    if args.json:
        print(json.dumps({**payload, "diagram": diagram_to_json(d)},
                         sort_keys=True))
    else:
        for line in lines:
            print(line)


def parse_components(d: Diagram, spec: str):
    parts = spec.split(";")
    if len(parts) != 2:
        raise ValueError("expected two coefficient vectors separated by ';'")
    out = []
    for part in parts:
        coeffs = tuple(int(x) for x in part.replace(",", " ").split())
        if len(coeffs) != d.n:
            raise ValueError("coefficient vector %r has length %d, expected %d"
                             % (part, len(coeffs), d.n))
        out.append(coeffs)
    return out[0], out[1]


def parse_word(spec: str):
    return [int(x) for x in spec.replace(",", " ").split()]


# --- subcommands -----------------------------------------------------------

def cmd_classify(args) -> int:
    d = get_diagram(args)
    cls = classify(d)
    emit(args, d, {"n": d.n, "type": cls.name.lower()},
         ["%r: %s (n = %d)" % (d, cls.name.lower(), d.n)])
    return 0


def cmd_roots(args) -> int:
    d = get_diagram(args)
    labels = get_labels(args, d)
    roots = positive_roots(d, args.height_bound)
    emit(args, d, {"roots": [list(r) for r in roots], "total": len(roots)},
         [fmt_root(r, labels) for r in roots] + ["total %d" % len(roots)])
    return 0


def cmd_basis(args) -> int:
    d = get_diagram(args)
    labels = get_labels(args, d)
    basis = canonical_basis(d)
    elts = [{"index": k,
             "vertex": e.labels[0][0],
             "partner": list(e.labels[0][1]),
             "pair": [list(e.pair[0]), list(e.pair[1])]}
            for k, e in enumerate(basis.elements)]
    lines = ["%3d  %s v %s" % (k, fmt_root(simple_root(d, e.labels[0][0]),
                                           labels),
                               fmt_root(e.labels[0][1], labels))
             for k, e in enumerate(basis.elements)]
    emit(args, d, {"elements": elts, "total": len(basis)},
         lines + ["total %d" % len(basis)])
    return 0


def cmd_orbits(args) -> int:
    d = get_diagram(args)
    tables = orbit_tables(d)
    total = sum(t.size for t in tables)
    out, lines = [], []
    for t in tables:
        rec = {"id": t.id, "size": t.size, "height": t.height,
               "highest": [list(t.highest[0]), list(t.highest[1])],
               "basis_members": list(t.basis_members)}
        lines.append("orbit %d: size %d, %d basis members, highest %s "
                     "(height %d)" % (t.id, t.size, len(t.basis_members),
                                      fmt_pair(t.highest), t.height))
        if args.members:
            rec["members"] = [[list(a), list(b)] for a, b in t.members]
            lines.extend("    " + fmt_pair(p) for p in t.members)
        out.append(rec)
    emit(args, d, {"orbits": out, "total": total},
         lines + ["total %d positive 2-roots" % total])
    return 0


def cmd_highest(args) -> int:
    d = get_diagram(args)
    basis = canonical_basis(d)
    out = [{"pair": [list(a), list(b)],
            "height": sum(basis.expand_pair(a, b))}
           for a, b in closed_form_highest(d)]
    emit(args, d, {"highest": out},
         ["%s (height %d)" % (fmt_pair(r["pair"]), r["height"]) for r in out]
         or ["no 2-roots, so no highest 2-roots"])
    return 0


def cmd_expand(args) -> int:
    d = get_diagram(args)
    labels = get_labels(args, d)
    a, b = parse_components(d, args.components)
    basis = canonical_basis(d)
    coords = basis.expand_pair(a, b)
    emit(args, d, {"coords": list(coords), "height": sum(coords)},
         ["%d * %s" % (c, fmt_pair(basis.elements[k].pair, labels))
          for k, c in enumerate(coords) if c] + ["height %d" % sum(coords)])
    return 0


def cmd_matrix(args) -> int:
    d = get_diagram(args)
    word = parse_word(args.word)
    basis = canonical_basis(d)
    m = basis.word_matrix(word)
    coherent = all(sign_coherent(col)[1] in (1, -1) for col in zip(*m))
    rec = {"word": word, "matrix": [list(row) for row in m]}
    lines = [" ".join("%3d" % x for x in row) for row in m]
    if args.check_sign_coherence:
        rec["sign_coherent"] = coherent
        lines.append("sign coherent: %s" % coherent)
    emit(args, d, rec, lines)
    return 0 if coherent else 1


def cmd_decompose(args) -> int:
    d = get_diagram(args)
    cls = classify(d)
    if cls is TypeClass.AFFINE:
        if args.prime is not None:
            raise ValueError("--prime is not supported for affine diagrams")
        w = affine_radical_witness(d)
        emit(args, d, {"type": "affine", "delta": list(w["delta"]),
                       "radical_dim": w["radical_dim"]},
             ["%r: affine, invariant form is degenerate" % (d,),
              "delta = %s" % fmt_root(w["delta"]),
              "radical spanned by delta v a_i, dimension %d"
              % w["radical_dim"]])
        return 0
    rep = decompose_s2v(d, p=args.prime)
    lines = ["%r: %s" % (d, cls.name.lower())]
    if args.prime is not None:
        lines.append("radicals computed mod %d" % args.prime)
    lines += ["dim S^2(V) = %d" % rep["dim_sym_square"],
              "invariant line: %d" % rep["invariant_dim"],
              "module dim: %d" % rep["module_dim"]]
    if "orbit_summands" in rep:
        lines += ["orbit %d: dim %d, radical %d"
                  % (s["id"], s["dim"], s["radical_dim"])
                  for s in rep["orbit_summands"]]
        lines.append("complement dim: %d" % rep["complement_dim"])
    else:
        lines.append("module radical dim: %d" % rep["module_radical_dim"])
    emit(args, d, {**rep, "type": cls.name.lower()}, lines)
    return 0


def cmd_kernel(args) -> int:
    d = get_diagram(args)
    order = weyl_order(d)  # refuses affine and indefinite forks first
    # orbit k is summand k of the canonical basis: no orbit table is built
    summands = dict(enumerate(canonical_basis(d).summands(), start=1))
    if args.orbit is not None:
        if args.orbit not in summands:
            raise ValueError("no orbit with id %d" % args.orbit)
        summands = {args.orbit: summands[args.orbit]}
    orders = kernel_orders(d, summands.values(), order)
    out = [{"orbit": k, "kernel_order": n} for k, n in zip(summands, orders)]
    emit(args, d, {"group_order": order, "kernels": out},
         ["orbit %d: kernel order %d (group order %d)"
          % (r["orbit"], r["kernel_order"], order) for r in out]
         or ["no orbits (group order %d)" % order])
    return 0


def cmd_skein(args) -> int:
    d = get_diagram(args)
    a, b = parse_components(d, args.components)
    sys.stdout.write(render_skein(d, (a, b)))
    return 0


def cmd_verify(args) -> int:
    checks = run_suites(args.suite or ["all"], seed=args.seed)
    for c in checks:
        print(c.line())
    failed = sum(not c.ok for c in checks)
    print("%d checks, %d failed" % (len(checks), failed))
    return 1 if failed else 0


def cmd_witness(args) -> int:
    w = norm2_witness(*args.y)
    emit(args, w["diagram"],
         {"norm": int(w["norm"]), "sign_coherent": w["sign_coherent"],
          "sign": w["sign"], "coords": list(w["coords"]),
          "delta": list(w["delta"])},
         ["%r: x = (a%d + a%d) v a%d + a%d v delta, delta = %s"
          % (w["diagram"], w["alpha"], w["beta"], w["outer"], w["alpha"],
             fmt_root(w["delta"])),
          "norm %s, sign coherent: %s (sign %s)"
          % (w["norm"], w["sign_coherent"], w["sign"])])
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tworoots",
        description="Exact computations with 2-roots of simply laced "
                    "Weyl groups of path and fork type.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, numbering=False):
        p = sub.add_parser(name, help=help_)
        add_diagram_args(p)
        if numbering:
            p.add_argument("--paper-numbering",
                           choices=["internal", "d", "e", "a"],
                           default="internal",
                           help="vertex labels used when printing roots")
        p.add_argument("--json", action="store_true",
                       help="machine readable output")
        p.set_defaults(fn=fn)
        return p

    add("classify", cmd_classify, "finite / affine / indefinite type")

    p = add("roots", cmd_roots, "list the positive roots", numbering=True)
    p.add_argument("--height-bound", type=int, default=None,
                   help="cap on root height (required for infinite types)")

    add("basis", cmd_basis, "list the canonical basis of 2-roots",
        numbering=True)

    p = add("orbits", cmd_orbits, "orbit tables of the positive 2-roots")
    p.add_argument("--members", action="store_true",
                   help="list every orbit member")

    add("highest", cmd_highest, "closed form highest 2-roots, one per orbit")

    p = add("expand", cmd_expand, "expand a v b over the canonical basis",
            numbering=True)
    p.add_argument("--components", required=True, metavar="A;B",
                   help="two root coefficient vectors, e.g. '1,1,0;0,1,1'")

    p = add("matrix", cmd_matrix, "matrix of a word of simple reflections")
    p.add_argument("--word", required=True, metavar="W",
                   help="vertex numbers, e.g. '0 1 2'")
    p.add_argument("--check-sign-coherence", action="store_true",
                   help="exit 1 unless every column has one sign")

    p = add("decompose", cmd_decompose,
            "decomposition of the symmetric square")
    p.add_argument("--prime", type=int, default=None,
                   help="compute radical dimensions mod this prime")

    p = add("kernel", cmd_kernel, "kernel of the group action on an orbit "
                                  "summand (counted by a backtrack over the "
                                  "images of the simple roots)")
    p.add_argument("--orbit", type=int, default=None, help="orbit id")

    p = add("skein", cmd_skein, "arc picture of a 2-root and its expansion")
    p.add_argument("--components", required=True, metavar="A;B")

    p = sub.add_parser("witness",
                       help="norm 2 element with sign coherent expansion "
                            "in a minimal indefinite fork type")
    p.add_argument("--y", nargs=3, type=int, required=True,
                   metavar=("A", "B", "C"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("verify", help="run the self check suites")
    p.add_argument("--suite", action="append",
                   choices=sorted(SUITES) + ["all"],
                   help="suite name (repeatable; default all)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized checks")
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except MemoryError as e:
        print("error: %s" % (str(e) or "out of memory"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
