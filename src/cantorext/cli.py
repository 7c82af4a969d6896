"""Command-line front end.

Subcommands: hn-group, hn-ext, tor, ext, morse, dimquot, toeplitz.
Exit codes: 0 success, 1 computation refused (size cap), 2 usage error.
All file formats are documented in FORMATS.md at the repository root.
"""

from __future__ import annotations

import argparse
import json
import sys

from cantorext import abelian, cochain, dimlim, exactla, groups, toeplitz
from cantorext.abelian import FgAbGroup
from cantorext.exactla import CapExceeded, ExactMatrix, _json_int, _json_int_rows


class UsageError(Exception):
    pass


def _load_json_arg(text, what):
    """Parse an inline JSON value or @file reference."""
    if text.startswith("@"):
        try:
            with open(text[1:]) as fh:
                raw = fh.read()
        except OSError as e:
            raise UsageError(f"cannot read {what} file {text[1:]!r}: {e}")
    else:
        raw = text
    try:
        return json.loads(raw)
    except ValueError as e:  # a JSONDecodeError, or an integer of too many digits
        raise UsageError(f"malformed JSON for {what}: {e}")


def _parse_group(text):
    """Builtin name, or JSON {'order','table'} / {'degree','generators'}."""
    if not (text.startswith("@") or text.lstrip().startswith("{")):
        try:
            return groups.builtin(text)
        except ValueError as e:
            raise UsageError(str(e))
    obj = _load_json_arg(text, "group")
    if not isinstance(obj, dict):
        raise UsageError("group JSON must be an object")
    try:
        if "table" in obj:
            table = _json_int_rows(obj["table"], "table")
            if "order" in obj and len(table) != _json_int(obj["order"], "order"):
                raise UsageError("group field 'table' disagrees with field 'order'")
            return groups.FiniteGroup(table)
        if "generators" in obj:
            if "degree" not in obj:
                raise UsageError("group field 'degree' missing alongside 'generators'")
            generators = _json_int_rows(obj["generators"], "generators")
            return groups.from_permutations(_json_int(obj["degree"], "degree"), generators)
    except ValueError as e:
        raise UsageError(f"bad group: {e}")
    raise UsageError("group JSON needs field 'table' or 'generators'")


def _parse_subgroup(group, text):
    """Semicolon-separated permutations '1,0,2;...', JSON {'elements':[...]}, or ''. """
    if text is None or text.strip() == "":
        return []
    if text.startswith("@") or text.lstrip().startswith("{"):
        obj = _load_json_arg(text, "subgroup")
        if not isinstance(obj, dict) or "elements" not in obj:
            raise UsageError("subgroup JSON needs field 'elements'")
        els = obj["elements"]
        if not isinstance(els, list):
            raise UsageError("subgroup field 'elements': expected a list of indices")
        for e in els:
            if isinstance(e, bool) or not isinstance(e, int) or not 0 <= e < group.order:
                raise UsageError(f"subgroup field 'elements' has bad index {e!r}")
        return list(els)
    els = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            perm = tuple(int(x) for x in part.split(","))
            els.append(group.element_of_perm(perm))
        except ValueError as e:
            raise UsageError(f"bad subgroup permutation {part!r}: {e}")
    return els


def _parse_fg_group(text, what):
    obj = _load_json_arg(text, what)
    if not isinstance(obj, dict):
        raise UsageError(f"{what} JSON must be an object with 'factors'/'rank'")
    try:
        return FgAbGroup.from_json_obj(obj)
    except (ValueError, TypeError) as e:
        raise UsageError(f"bad {what}: {e}")


def _parse_matrix(text, what):
    obj = _load_json_arg(text, what)
    try:
        return ExactMatrix.from_json_obj(obj)
    except (KeyError, ValueError, TypeError) as e:
        raise UsageError(f"bad {what} matrix: {e}")


def _parse_vector(text, what):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad {what}: expected comma-separated integers")


def _emit_group(g, args, extra=None):
    if args.json:
        obj = {"result": g.to_json_obj()}
        if extra:
            obj.update(extra)
        print(json.dumps(obj, sort_keys=True))
    else:
        print(g)


def _check_level(n):
    if n < 0:
        raise UsageError(f"--n must be >= 0, got {n}")


def _cmd_hn_group(args):
    _check_level(args.n)
    g = _parse_group(args.group)
    res = cochain.group_cohomology(g, args.n, cap=args.max_tuples)
    extra = {"group": g.name or f"order{g.order}", "n": args.n}
    _emit_group(res, args, extra)
    return 0


def _cmd_hn_ext(args):
    _check_level(args.n)
    g = _parse_group(args.group)
    h = _parse_subgroup(g, args.subgroup)
    res = cochain.relative_cohomology_isometric(g, h, args.n, cap=args.max_tuples)
    extra = {
        "group": g.name or f"order{g.order}",
        "subgroup_order": len(g.subgroup_closure(h)),
        "n": args.n,
    }
    _emit_group(res, args, extra)
    return 0


def _cmd_tor(args):
    m = _parse_fg_group(args.m, "m")
    g = _parse_fg_group(args.g, "g")
    if not g.is_finite:
        raise UsageError("field 'rank' of g must be 0 (tor needs finite g)")
    _emit_group(abelian.tor(m, g), args)
    return 0


def _cmd_ext(args):
    g = _parse_fg_group(args.g, "g")
    if not g.is_finite:
        raise UsageError("field 'rank' of g must be 0 (ext needs finite g)")
    _emit_group(abelian.ext_z(g), args)
    return 0


def _cmd_morse(args):
    report = dimlim.morse_report()
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        width = max(len(k) for k in report)
        for key, val in report.items():
            print(f"{key:<{width}}  {val}")
    return 0 if report["all_pass"] else 1


def _cmd_dimquot(args):
    a = _parse_matrix(args.target_matrix, "target")
    b = _parse_matrix(args.source_matrix, "source")
    r = _parse_matrix(args.map, "map")
    target_unit = _parse_vector(args.target_unit, "target unit")
    source_unit = _parse_vector(args.source_unit, "source unit")
    try:
        target = dimlim.StationaryLimit(a, target_unit)
    except ValueError as e:
        raise UsageError(f"bad target: {e}")
    try:
        source = dimlim.StationaryLimit(b, source_unit)
    except ValueError as e:
        raise UsageError(f"bad source: {e}")
    try:
        t = dimlim.Intertwiner(source=source, target=target, r=r)
    except ValueError as e:
        raise UsageError(str(e))
    out = dimlim.quotient_by_intertwiner(t)
    if out.is_finitely_generated:
        _emit_group(out.group, args, {"kind": out.kind})
    else:
        basis, endo = out.witness
        obj = {
            "kind": out.kind,
            "witness": {
                "sublattice": basis.to_json_obj(),
                "acting_matrix": endo.to_json_obj(),
            },
        }
        if args.json:
            print(json.dumps(obj, sort_keys=True))
        else:
            print("non-finitely-generated")
            print(f"stable sublattice: {basis.to_rows()}")
            print(f"acting matrix: {endo.to_rows()}")
    return 0


def _cmd_toeplitz(args):
    g = _parse_group(args.group)
    try:
        if args.enumeration:
            enumeration = _parse_vector(args.enumeration, "enumeration")
        elif args.check:
            toeplitz.refuse_check_depth(g, args.depth)  # before the search
            enumeration = toeplitz.default_enumeration(g)
        else:
            enumeration = tuple(range(g.order))
        w = toeplitz.generate_window(g, enumeration, args.depth)
        # before any output, so a refused check prints nothing
        realized = toeplitz.essential_values(w, 4) if args.check else None
    except toeplitz.CheckDepthError as e:
        raise UsageError(f"field 'depth' too small for check: {e}")
    except ValueError as e:
        raise UsageError(str(e))
    text = {v: str(v) for v in w.stage_values}  # a window holds only its stage values
    print(" ".join(map(text.__getitem__, w.values)))
    if args.check:
        report = {
            "group": g.name or f"order{g.order}",
            "depth": args.depth,
            "enumeration": list(enumeration),
            "construction_identity": toeplitz.construction_identity_holds(w),
            "essential_values_realized": sorted(realized),
            "full_group": len(realized) == g.order,
        }
        print(json.dumps(report, sort_keys=True))
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="cantorext",
        description="Exact invariants of finite isometric extensions: group "
        "cohomology, relative cohomology, Tor/Ext, Morse pipeline, Toeplitz windows.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="JSON output")
        sp.add_argument("--max-tuples", type=int, default=cochain.DEFAULT_TUPLE_CAP,
                        help="size cap for orbit enumeration")

    sp = sub.add_parser("hn-group", help="H^n(G) of a finite group")
    sp.add_argument("--group", required=True, help="builtin name, JSON, or @file")
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(func=_cmd_hn_group)

    sp = sub.add_parser("hn-ext", help="H^n(X|Y) for isometric data (G, H)")
    sp.add_argument("--group", required=True)
    sp.add_argument("--subgroup", default="", help="'perm;perm' or JSON/@file")
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(func=_cmd_hn_ext)

    sp = sub.add_parser("tor", help="Tor(M, G) for finite G")
    sp.add_argument("--m", required=True, help='JSON {"factors":[..],"rank":r} or @file')
    sp.add_argument("--g", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_tor)

    sp = sub.add_parser("ext", help="Ext(G, Z) for finite G")
    sp.add_argument("--g", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_ext)

    sp = sub.add_parser("morse", help="verify the Morse system pipeline")
    common(sp)
    sp.set_defaults(func=_cmd_morse)

    sp = sub.add_parser("dimquot", help="quotient of stationary limits by an intertwiner")
    sp.add_argument("--target-matrix", required=True)
    sp.add_argument("--target-unit", required=True, help="comma-separated integers")
    sp.add_argument("--source-matrix", required=True)
    sp.add_argument("--source-unit", required=True)
    sp.add_argument("--map", required=True, help="intertwining matrix R")
    common(sp)
    sp.set_defaults(func=_cmd_dimquot)

    sp = sub.add_parser("toeplitz", help="Toeplitz window over a finite group")
    sp.add_argument("--group", required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--enumeration", default="",
                    help="comma-separated element indices u_0..u_{N-1} "
                    "(default: adapted when --check, else lexicographic)")
    sp.add_argument("--check", action="store_true", help="emit the JSON check report")
    common(sp)
    sp.set_defaults(func=_cmd_toeplitz)

    return p


# built on first use and reused: each parse_args call fills a fresh namespace
_parser = None


def run(argv) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CapExceeded as e:
        msg = {"refused": True, "reason": "size-cap", "size": e.size, "cap": e.cap}
        print(json.dumps(msg), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
