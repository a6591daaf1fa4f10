"""Batch command-line surface.

Subcommands validate input files, generate seeded test instances, and run the
map checks and the near-sum decomposition.  Reports are JSON with sorted keys
and canonical scalars (byte-identical across runs for identical inputs);
human-readable summaries go to standard error.

Exit codes: 0 = all checks passed, 1 = checks ran and failed (report still
written), 2 = input or precondition error, 3 = internal error (an unexpected
exception; its traceback goes to standard error).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from json.encoder import encode_basestring_ascii as _encode_str

from .algebra import incidence_algebra
from .errors import FialgError
from .jordan import decompose, random_jordan_iso, verify_paper_identities
from .linmaps import LinMap, check_homomorphism, check_jordan
from .posets import Poset, random_poset
from .rings import ring_from_json


class CliError(Exception):
    """An input problem worth a clean diagnostic instead of a traceback."""


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"{what} file {path!r}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{what} file {path!r}: invalid JSON (line {exc.lineno}: {exc.msg})"
        )
    except (ValueError, RecursionError) as exc:
        # undecodable UTF-8, an integer past int()'s digit limit, or nesting
        # deeper than the decoder's recursion limit
        raise CliError(f"{what} file {path!r}: unreadable JSON ({exc})")


def _load(path: str, what: str, build):
    """build(the JSON in the {what} file at path); a FialgError it raises
    becomes the file's diagnostic."""
    obj = _read_json(path, what)
    try:
        return build(obj)
    except FialgError as exc:
        raise CliError(f"{what} file {path!r}: {exc}")


def _load_map(args) -> LinMap:
    """The --map file, over the incidence algebra of --poset and --ring."""
    poset = _load(args.poset, "poset", Poset.from_json)
    algebra = incidence_algebra(poset, _load(args.ring, "ring", ring_from_json))
    return _load(args.map, "map", lambda obj: LinMap.from_json(algebra, algebra, obj))


def _write_json(obj, nl: str, parts: list) -> None:
    """Append obj to parts as json.dumps(sort_keys=True, indent=2) writes it
    after indent nl; module level, as a closure calling itself is a cycle."""
    if isinstance(obj, str):
        parts.append(_encode_str(obj))
    elif isinstance(obj, dict):
        inner = nl + "  "
        for i, key in enumerate(sorted(obj)):
            parts.append(("," if i else "{") + inner + _encode_str(key) + ": ")
            _write_json(obj[key], inner, parts)
        parts.append(nl + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner = nl + "  "
        try:  # a list of strings goes out in one join
            body = ("," + inner).join(map(_encode_str, obj))
            parts.append("[" + inner + body + nl + "]" if obj else "[]")
        except TypeError:  # an item is not a string
            for i, item in enumerate(obj):
                parts.append(("," if i else "[") + inner)
                _write_json(item, inner, parts)
            parts.append(nl + "]")
    else:
        parts.append(json.dumps(obj))


def _json_text(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\\n", byte for byte; a
    non-string dict key sends the whole document to json.dumps."""
    parts = []
    try:
        _write_json(obj, "\n", parts)
    except TypeError:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return "".join(parts) + "\n"


def _emit(obj, out_path: str | None) -> None:
    text = _json_text(obj)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"output file {out_path!r}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _report_exit(report, ring, out_path) -> int:
    _emit(report.to_json(ring.format), out_path)
    _note(report.summary())
    total = len(report.checks)
    good = sum(1 for c in report.checks if c.passed)
    _note(f"{good}/{total} checks passed")
    return 0 if report.passed else 1


# -- subcommand handlers ------------------------------------------------------


def _cmd_validate_poset(args) -> int:
    poset = _load(args.file, "poset", Poset.from_json)
    _emit(poset.to_json(), args.out)
    _note(
        f"poset ok: {poset.size} element(s), "
        f"{len(poset.covers())} covering relation(s)"
    )
    return 0


def _cmd_gen_poset(args) -> int:
    if args.n < 1:
        raise CliError(f"--n must be >= 1, got {args.n}")
    if not 0.0 <= args.p <= 1.0:
        raise CliError(f"--p must lie in [0, 1], got {args.p}")
    poset = random_poset(args.n, args.p, args.seed)
    _emit(poset.to_json(), args.out)
    _note(f"generated poset on {poset.size} element(s) with seed {args.seed}")
    return 0


def _cmd_gen_jordan(args) -> int:
    poset = _load(args.poset, "poset", Poset.from_json)
    ring = _load(args.ring, "ring", ring_from_json)
    phi = random_jordan_iso(poset, ring, args.seed)
    _emit(phi.to_json(), args.out)
    _note(
        f"generated Jordan isomorphism of dimension {phi.domain.dimension} "
        f"over {ring!r} with seed {args.seed}"
    )
    return 0


def _cmd_check_map(args) -> int:
    phi = _load_map(args)
    if args.jordan:
        report = check_jordan(phi, allow_torsion=args.allow_torsion)
    elif args.anti:
        report = check_homomorphism(phi, anti=True)
    else:
        report = check_homomorphism(phi)
    return _report_exit(report, phi.ring, args.out)


def _cmd_decompose(args) -> int:
    dec = decompose(_load_map(args), allow_torsion=args.allow_torsion)
    _emit(dec.to_json(), args.out)
    _note(dec.report.summary())
    return 0 if dec.report.passed else 1


def _cmd_verify(args) -> int:
    if args.seed is not None and not args.identities:
        raise CliError("--seed seeds the identity samples; it needs --identities")
    phi = _load_map(args)
    if args.identities:
        seed = 7 if args.seed is None else args.seed
        report = verify_paper_identities(phi, seed, allow_torsion=args.allow_torsion)
    else:
        report = decompose(phi, allow_torsion=args.allow_torsion).report
    return _report_exit(report, phi.ring, args.out)


# -- parser -------------------------------------------------------------------


def _add_out(p):
    p.add_argument("--out", help="write the JSON report here instead of stdout")


def _add_context(p):
    p.add_argument("--poset", required=True, help="poset JSON file")
    p.add_argument("--ring", required=True, help="ring JSON file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fialg",
        description=(
            "Incidence-algebra toolkit: validate posets, generate Jordan "
            "isomorphisms, check map laws, and run near-sum decompositions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-poset", help="check a poset file's axioms")
    p.add_argument("file", help="poset JSON file")
    _add_out(p)
    p.set_defaults(handler=_cmd_validate_poset)

    p = sub.add_parser("gen-poset", help="generate a random poset")
    p.add_argument("--n", type=int, required=True, help="number of elements")
    p.add_argument("--p", type=float, required=True, help="edge probability")
    p.add_argument("--seed", type=int, required=True)
    _add_out(p)
    p.set_defaults(handler=_cmd_gen_poset)

    p = sub.add_parser("gen-jordan", help="generate a seeded Jordan isomorphism")
    _add_context(p)
    p.add_argument("--seed", type=int, required=True)
    _add_out(p)
    p.set_defaults(handler=_cmd_gen_jordan)

    p = sub.add_parser("check-map", help="test a map against the chosen law")
    _add_context(p)
    p.add_argument("--map", required=True, help="linear-map JSON file")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument(
        "--anti", action="store_true", help="check the anti-homomorphism law"
    )
    kind.add_argument(
        "--jordan", action="store_true", help="check the Jordan pair+triple laws"
    )
    p.add_argument("--allow-torsion", action="store_true")
    _add_out(p)
    p.set_defaults(handler=_cmd_check_map)

    p = sub.add_parser("decompose", help="near-sum decomposition of a Jordan map")
    _add_context(p)
    p.add_argument("--map", required=True, help="linear-map JSON file")
    p.add_argument("--allow-torsion", action="store_true")
    _add_out(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser(
        "verify", help="re-verify a decomposition or the full identity suite"
    )
    _add_context(p)
    p.add_argument("--map", required=True, help="linear-map JSON file")
    p.add_argument(
        "--identities",
        action="store_true",
        help="run the sampled identity families instead of the near-sum checks",
    )
    p.add_argument("--seed", type=int, help="identity sampling seed (default 7)")
    p.add_argument("--allow-torsion", action="store_true")
    _add_out(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        _note(f"error: {exc}")
        return 2
    except FialgError as exc:
        _note(f"error: {type(exc).__name__}: {exc}")
        return 2
    except Exception:
        traceback.print_exc()
        return 3


def entry() -> None:
    raise SystemExit(run())
