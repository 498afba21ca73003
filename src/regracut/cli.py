"""Command-line front end over the library: file I/O and JSON reports.

Every subcommand writes one JSON document (``"schema": 1``) to --out or
stdout, except ``sample``, which writes a graph file.  Exit codes: 0 on
success, 2 on validation or usage errors, 3 when a run completes but
reports a failure verdict (refinement cap exceeded, loop stalled, or no
usable template found).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path

from .decomposition import EpsilonFunction, decompose, select_subclusters
from .density import (
    _EXACT_SIDE_CAP,
    channel_labels,
    certify,
    density_vector,
    partition_index,
)
from .editdist import distance_to_property
from .embedding import count_spanning_copies
from .errors import BadPartition, RegracutError, _integer, _real
from .graphs import (
    _text_blocks,
    read_graph,
    sample_digraph,
    sample_rgraph,
    write_graph,
)
from .partitions import _load_vertex_lists, load_partition
from .typegraphs import (
    DIRTYPE,
    ForbiddenFamily,
    edit_distance_lower_bound,
    enumerate_types,
    expected_edit_fraction,
    theorem_error_terms,
    type_from_json,
    type_to_json,
)

SCHEMA = 1

# the C encoder (it does not indent); NaN and infinities are not JSON
_ENCODE = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def _json(obj, pad: str = "\n") -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, whose encoder runs in
    pure Python when it indents.  Containers are laid out here: a list of
    ints with one join, a list of int lists of one length with one `%` a
    row (bool is not int here); scalars and keys go to the C encoder."""
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        brackets = "{}"
        rows = (
            f"{_ENCODE(k if isinstance(k, str) else _ENCODE(k))}: {_json(v, inner)}"
            for k, v in sorted(obj.items())
        )
    elif isinstance(obj, (list, tuple)) and obj:
        brackets = "[]"
        kinds = set(map(type, obj))
        if kinds == {int}:
            rows = map(str, obj)
        elif (
            kinds <= {list, tuple}
            and len(set(map(len, obj))) == 1
            and set(map(type, itertools.chain.from_iterable(obj))) == {int}
        ):
            row = _json([0] * len(obj[0]), inner).replace("0", "%d")
            rows = map(row.__mod__, map(tuple, obj))
        else:
            rows = (_json(x, inner) for x in obj)
    else:
        return _ENCODE(obj)
    return brackets[0] + inner + ("," + inner).join(rows) + pad + brackets[1]


def _emit(payload: dict, out: str | None) -> None:
    try:
        text = _json({"schema": SCHEMA} | payload) + "\n"
    except ValueError as exc:  # a NaN or an infinity
        raise RegracutError(f"cannot write the report: {exc}") from None
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise RegracutError(f"cannot parse number list {text!r}") from None


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise RegracutError(f"cannot parse integer list {text!r}") from None


def _load_family(paths) -> ForbiddenFamily:
    return ForbiddenFamily([read_graph(p) for p in paths])


def _witness_json(witness):
    if witness is None:
        return None
    return {
        "a_prime": sorted(int(v) for v in witness.a_prime),
        "b_prime": sorted(int(v) for v in witness.b_prime),
        "color": witness.color,
        "deviation": witness.deviation,
    }


def _blocks_json(part) -> list[list[int]]:
    return [list(b) for b in part.blocks]


def _pair_stats_json(stats) -> dict:
    return {
        "irregular_top": [list(p) for p in stats.irregular_top],
        "unknown_top": stats.unknown_top,
        "irregular_sub": [list(p) for p in stats.irregular_sub],
        "unknown_sub": stats.unknown_sub,
        "deviation_bad_subpairs": [
            [i, j, c] for (i, j), c in sorted(stats.deviation_bad_subpairs.items())
        ],
        "deviating_pairs": [list(p) for p in stats.deviating_pairs],
    }


def _cmd_sample(args) -> int:
    ps = _floats(args.p)
    if args.kind == "rgraph":
        G = sample_rgraph(args.n, ps, seed=args.seed)
    elif len(ps) != 1 or args.q is None:
        raise RegracutError("digraph sampling needs scalar --p and --q")
    else:
        G = sample_digraph(args.n, ps[0], args.q, seed=args.seed)
    if args.out:
        write_graph(G, args.out)
    else:
        sys.stdout.writelines(block.decode("ascii") for block in _text_blocks(G))
    return 0


def _cmd_density(args) -> int:
    G = read_graph(args.graph)
    if args.a is not None and args.b is not None:
        A, B = _ints(args.a), _ints(args.b)
    elif args.parts and args.i is not None and args.j is not None:
        part = load_partition(args.parts)
        for flag, index in (("--i", args.i), ("--j", args.j)):
            if not 0 <= index < part.order:
                raise BadPartition(f"{flag} {index} is not a block index in 0..{part.order - 1}")
        A, B = part.blocks[args.i], part.blocks[args.j]
    else:
        raise RegracutError("pass either --a and --b or --parts with --i and --j")
    dens = density_vector(G, A, B)
    _emit(
        {"densities": [float(x) for x in dens], "channels": list(channel_labels(G))},
        args.out,
    )
    return 0


def _cmd_check_pair(args) -> int:
    if not math.isfinite(args.gamma):  # the report repeats it
        raise RegracutError(f"--gamma must be a finite number, got {args.gamma}")
    G = read_graph(args.graph)
    A, B = _ints(args.a), _ints(args.b)
    report = certify(G, A, B, args.gamma, args.method, args.exact_cap)
    _emit(
        {
            "gamma": report.gamma,
            "verdict": report.verdict,
            "witness": _witness_json(report.witness),
        },
        args.out,
    )
    return 0


def _cmd_index(args) -> int:
    G = read_graph(args.graph)
    part = load_partition(args.parts)
    _emit({"index": partition_index(G, part), "order": part.order}, args.out)
    return 0


def _make_efun(eps, efun_text) -> EpsilonFunction:
    if eps is None and efun_text is None:
        raise RegracutError("pass --eps, --efun, or both")
    if efun_text is None:
        return EpsilonFunction.constant(eps)
    tail = EpsilonFunction.parse(efun_text)
    if eps is None:
        return tail
    return EpsilonFunction(table={0: eps}, default=tail.default)


def _cmd_decompose(args) -> int:
    G = read_graph(args.input)
    efun = _make_efun(args.eps, args.efun)
    result = decompose(
        G, args.m, efun, cap=args.cap, certifier=args.certifier, seed=args.seed
    )
    selection = select_subclusters(
        G, result, efun, trials=args.trials, seed=args.seed, certifier=args.certifier
    )
    payload = {
        "coarse": _blocks_json(result.coarse),
        "fine": _blocks_json(result.fine),
        "fine_parent": list(result.fine.parent),
        "ell": result.ell,
        "iterations": result.iterations,
        "index_trace": list(result.index_trace),
        "pair_stats": _pair_stats_json(result.pair_stats),
        "bullets": result.bullets,
        "stalled": result.stalled,
        "cap_exceeded": result.cap_exceeded,
        "selection": {
            "chosen": list(selection.chosen),
            "blocks": [list(b) for b in selection.blocks],
            "irregular_pairs": selection.irregular_pairs,
            "deviating_pairs": selection.deviating_pairs,
            "draws": selection.draws,
            "min_block_fraction": selection.min_block_fraction,
        },
    }
    _emit(payload, args.out)
    return 3 if result.stalled or result.cap_exceeded else 0


def _cmd_count_copies(args) -> int:
    G = read_graph(args.graph)
    H = read_graph(args.pattern)
    parts = _load_vertex_lists(args.parts)
    cc = count_spanning_copies(G, H, parts, eta=args.eta)
    _emit(
        {"count": cc.count, "total": cc.total, "bound": cc.bound, "satisfied": cc.satisfied},
        args.out,
    )
    return 0


def _enumeration_kind(args, family: ForbiddenFamily):
    return args.palette if family.kind == DIRTYPE else family.r


def _cmd_enum_types(args) -> int:
    family = _load_family(args.forbid)
    tf = enumerate_types(_enumeration_kind(args, family), args.kmax, family)
    _emit(
        {
            "size_bound": tf.size_bound,
            "count": len(tf),
            "types": [type_to_json(K) for K in tf],
        },
        args.out,
    )
    return 0


def _cmd_fk(args) -> int:
    try:
        text = Path(args.type).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise RegracutError(
            f"{args.type} is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    K = type_from_json(json.loads(text))
    _emit({"fk": expected_edit_fraction(K, _floats(args.p))}, args.out)
    return 0


def _cmd_edit_distance(args) -> int:
    G = read_graph(args.graph)
    family = _load_family(args.forbid)
    dist, witness = distance_to_property(G, family)
    if args.witness_out:
        write_graph(witness, args.witness_out)
    _emit({"distance": dist}, args.out)
    return 0


def _cmd_bound(args) -> int:
    _integer(args.n, "--n", 1)
    if args.eps is not None:
        _real(args.eps, "eps", 0)
    family = _load_family(args.forbid)
    p = _floats(args.p)
    tf = enumerate_types(_enumeration_kind(args, family), args.kmax, family)
    if not tf.types:
        _emit({"found": False, "note": "no type found", "n": args.n}, args.out)
        return 3
    report = edit_distance_lower_bound(p, tf, args.n)
    payload = {
        "found": True,
        "n": args.n,
        "fraction": report.fraction,
        "value": report.value,
        "type": type_to_json(report.type),
        "note": "asymptotic display; finite-size slack via --eps",
    }
    if args.eps is not None:
        # the proof's partition order is at least 1/eps; 4 channels for digraphs
        k = max(report.type.k, math.ceil(1 / args.eps))
        r = family.members[0]._nch
        payload["error_terms"] = theorem_error_terms(args.n, k, r, args.eps)
    _emit(payload, args.out)
    return 0


def _cmd_experiment(args) -> int:
    _integer(args.seeds, "--seeds", 1)
    family = _load_family(args.forbid)
    if family.kind == DIRTYPE:
        raise RegracutError("the experiment runner samples colored graphs only")
    p = _floats(args.p)
    if len(p) != family.r:
        raise RegracutError(f"--p needs {family.r} entries for this family")
    tf = enumerate_types(family.r, args.kmax, family)
    rows = []
    csv_lines = ["n,seed,distance"]
    for n in _ints(args.n):
        distances = []
        for seed in range(args.seeds):
            G = sample_rgraph(n, p, seed=seed)
            d, _ = distance_to_property(G, family)
            distances.append(d)
            csv_lines.append(f"{n},{seed},{d}")
        row = {
            "n": n,
            "mean": sum(distances) / len(distances),
            "min": min(distances),
            "max": max(distances),
        }
        if tf.types:
            bound = edit_distance_lower_bound(p, tf, n)
            row["bound"] = bound.value
            row["gap"] = row["mean"] - bound.value
        else:
            row["bound"] = None
            row["gap"] = None
        rows.append(row)
    payload = {
        "k_max": args.kmax,
        "seeds": args.seeds,
        "rows": rows,
        "bound_found": bool(tf.types),
        "gap_trend": [row["gap"] for row in rows],
    }
    if tf.types:
        # reported, never asserted: the smallest c with mean >= bound - c*n
        payload["slack_constant"] = max(
            (row["bound"] - row["mean"]) / row["n"] for row in rows
        )
    else:
        payload["note"] = "no type found"
    if args.csv:
        Path(args.csv).write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    _emit(payload, args.out)
    return 0


@functools.lru_cache(maxsize=1)  # built once; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regracut",
        description="Regularity decompositions, template bounds, and edit "
        "distance for complete edge-colored graphs and digraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    p = add("sample", _cmd_sample, "sample a random graph and write its file")
    p.add_argument("--kind", choices=["rgraph", "digraph"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True,
                   help="color probabilities p1,..,pr (rgraph) or both-arcs p (digraph)")
    p.add_argument("--q", type=float, help="single-arc probability per direction (digraph)")
    p.add_argument("--seed", type=int, default=0)

    p = add("density", _cmd_density, "density vector between two vertex sets")
    p.add_argument("--graph", required=True)
    p.add_argument("--a", help="comma-separated vertex list")
    p.add_argument("--b", help="comma-separated vertex list")
    p.add_argument("--parts", help="partition file; use with --i and --j")
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)

    p = add("check-pair", _cmd_check_pair, "certify or refute pair regularity")
    p.add_argument("--graph", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--method", choices=["exact", "heuristic", "auto"], default="heuristic")
    p.add_argument("--exact-cap", type=int, default=_EXACT_SIDE_CAP,
                   help="largest side for the exhaustive certifier (at most 16)")

    p = add("index", _cmd_index, "index (mean squared density) of a partition")
    p.add_argument("--graph", required=True)
    p.add_argument("--parts", required=True)

    p = add("decompose", _cmd_decompose, "run the two-level regularity decomposition")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eps", type=float, help="tolerance at order 0")
    p.add_argument("--efun", help='tolerance schedule: a constant or "a/(k+1)"')
    p.add_argument("--cap", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--certifier", choices=["heuristic", "exact", "auto"], default="heuristic")
    p.add_argument("--trials", type=int, default=20,
                   help="subcluster selection draws")

    p = add("count-copies", _cmd_count_copies, "count spanning partite copies")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--parts", required=True, help="JSON array of vertex arrays")
    p.add_argument("--eta", type=float, help="attach the count floor for this eta")

    p = add("enum-types", _cmd_enum_types, "enumerate templates avoiding a family")
    p.add_argument("--forbid", nargs="+", required=True, help="forbidden graph files")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--palette", default="P0", help="palette name for digraph families")

    p = add("fk", _cmd_fk, "expected edit fraction of a template")
    p.add_argument("--type", required=True, help="template JSON file")
    p.add_argument("--p", required=True)

    p = add("edit-distance", _cmd_edit_distance, "exact distance to a property")
    p.add_argument("--graph", required=True)
    p.add_argument("--forbid", nargs="+", required=True)
    p.add_argument("--witness-out", help="write the recolored witness graph here")

    p = add("bound", _cmd_bound, "best template bound on the expected distance")
    p.add_argument("--forbid", nargs="+", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--palette", default="P0", help="palette name for digraph families")
    p.add_argument("--eps", type=float,
                   help="also report the finite-size error terms at this tolerance")

    p = add("experiment", _cmd_experiment, "sampled distances vs the template bound")
    p.add_argument("--forbid", nargs="+", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--n", required=True, help="comma-separated sizes, each within the exact cap")
    p.add_argument("--seeds", type=int, default=200)
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--csv", help="also write one row per sample here")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RegracutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON input ({exc})", file=sys.stderr)
        return 2
