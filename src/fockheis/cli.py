"""Batch command line front end emitting deterministic JSON.

Subcommands cover partition statistics and decomposition, character tables,
Littlewood-Richardson products, internal tensor products, symmetric-function
arithmetic, the Fock-space raising operators (plain and graded mod p), label
images, support enumeration, stability intervals, graded dimension series
and the coprime-to-b character pipeline.

Exit codes: 0 success, 2 input validation error, 3 domain error.  Where a
brute-force reference path exists, --oracle recomputes the result with it
and fails loudly on any difference.  The operator subcommands call
fock.b_op, fock.b_tau and fock.heis_modp, the last in closed form; the
--oracle of heis-modp and pipeline recomputes through the Koszul layers,
oracles.heis_modp_koszul.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import cherednik, fock, oracles, schar, symfunc
from .errors import DomainError, InputError, InvalidInput
from .partitions import Partition


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated descending partition; '0' or '' is empty.

    Non-canonical input is rejected, never silently sorted.
    """
    text = text.strip()
    if text in ("", "0"):
        return Partition()
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise InvalidInput(f"cannot parse partition {text!r}") from exc
    return Partition(parts)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational such as '3', '-3/2' or '0.5'."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"cannot parse rational {text!r}") from exc


def _parse_json_arg(text: str):
    if text.startswith("@"):
        path = text[1:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInput(f"cannot read {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"invalid JSON argument: {exc}") from exc


_output_path: str | None = None


def emit(payload) -> None:
    text = json.dumps(payload, separators=(",", ":")) + "\n"
    if _output_path:
        with open(_output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _oracle_mismatch(got, expected) -> None:
    sys.stderr.write(
        json.dumps(
            {"error": "oracle mismatch", "got": got, "oracle": expected},
            separators=(",", ":"),
        )
        + "\n"
    )
    raise SystemExit(3)


# ---------------------------------------------------------------------------
# input vectors


def _input_vector(args) -> fock.FockVector:
    if getattr(args, "vacuum", False):
        return fock.FockVector.vacuum()
    if getattr(args, "x", None):
        return fock.FockVector.from_json(_parse_json_arg(args.x))
    if getattr(args, "eta", None) is not None:
        return fock.FockVector.basis(parse_partition(args.eta))
    raise InvalidInput("supply --vacuum, --eta or --x JSON")


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_partition(args) -> None:
    eta = parse_partition(args.eta)
    if args.action == "stats":
        from . import partitions as P

        emit(
            {
                "eta": eta.to_json(),
                "size": eta.size,
                "content": P.content_sum(eta),
                "d": P.d_stat(eta),
                "transpose": P.transpose(eta).to_json(),
            }
        )
    else:  # decompose
        from .partitions import coprime_decompose

        mu, tau = coprime_decompose(eta, args.b)
        emit({"mu": mu.to_json(), "tau": tau.to_json()})


def cmd_char_table(args) -> None:
    table = schar.character_table(args.n)
    from .partitions import partitions_of

    parts = list(partitions_of(args.n))
    payload = {
        "n": args.n,
        "classes": [list(mu) for mu in parts],
        "table": [
            {"lam": list(lam), "values": [table[(lam, mu)] for mu in parts]}
            for lam in parts
        ],
    }
    if args.oracle:
        gs = oracles.character_table_gram_schmidt(args.n)
        if gs != table:
            _oracle_mismatch(payload, "gram-schmidt table differs")
        payload["oracle_checked"] = True
    emit(payload)


def cmd_lr(args) -> None:
    mu = parse_partition(args.mu)
    nu = parse_partition(args.nu)
    product = symfunc.schur_multiply(symfunc.SymFunc.schur(mu), symfunc.SymFunc.schur(nu))
    payload = product.to_json()
    if args.oracle:
        slow = oracles.schur_product_by_tableaux(mu, nu)
        fast = {lam: int(c) for lam, c in product.terms.items()}
        if fast != slow:
            _oracle_mismatch(payload, {str(tuple(k)): v for k, v in slow.items()})
        payload["oracle_checked"] = True
    emit(payload)


def cmd_kronecker(args) -> None:
    sigma = parse_partition(args.sigma)
    lam = parse_partition(args.lam)
    out = schar.kronecker_product(sigma, schar.VirtualRep.irreducible(lam))
    emit(out.to_json())


def cmd_symfunc(args) -> None:
    if args.action == "multiply":
        f = symfunc.SymFunc.from_json(_parse_json_arg(args.f))
        g = symfunc.SymFunc.from_json(_parse_json_arg(args.g))
        product = symfunc.schur_multiply(f, g)
        payload = product.to_json()
        if args.oracle:
            acc: dict = {}
            for mu, c1 in f.terms.items():
                for nu, c2 in g.terms.items():
                    for lam, k in oracles.schur_product_by_tableaux(mu, nu).items():
                        acc[lam] = acc.get(lam, Fraction(0)) + c1 * c2 * k
            slow = {lam: c for lam, c in acc.items() if c}
            if slow != dict(product.terms):
                _oracle_mismatch(payload, "tableau product differs")
            payload["oracle_checked"] = True
        emit(payload)
    else:  # plethysm
        if args.tau is not None:
            f = symfunc.SymFunc.schur(parse_partition(args.tau))
        elif args.f is not None:
            f = symfunc.SymFunc.from_json(_parse_json_arg(args.f))
        else:
            raise InvalidInput("supply --tau or --f JSON")
        result = symfunc.plethysm_pb(f, args.b)
        payload = result.to_json()
        if args.oracle:
            degrees = {lam.size for lam in f.terms}
            if len(degrees) != 1:
                raise InvalidInput("--oracle needs a homogeneous input")
            deg = degrees.pop() * args.b
            nvars = max(deg, 1)
            lhs: dict = {}
            for lam, c in f.terms.items():
                poly = oracles.poly_substitute_power(
                    oracles.schur_polynomial(lam, nvars), args.b
                )
                for e, cc in poly.items():
                    lhs[e] = lhs.get(e, 0) + c * cc
            lhs = {k: v for k, v in lhs.items() if v}
            expansion = oracles.schur_expansion_in_vars(lhs, nvars, deg)
            if expansion != dict(result.terms):
                _oracle_mismatch(payload, "monomial expansion differs")
            payload["oracle_checked"] = True
        emit(payload)


def cmd_heis(args) -> None:
    x = _input_vector(args)
    if args.action == "b-op":
        out = fock.b_op(args.i, args.b, x)
        payload = out.to_json()
        if args.oracle:
            # induce with the alternating hook sum and take characteristics
            m = args.i * args.b
            hooks = schar.VirtualRep(
                m, {Partition([m - j] + [1] * j): (-1) ** j for j in range(m)}
            )
            acc = fock.FockVector.zero()
            for eta, coeff in x.terms():
                induced = schar.induction_product(
                    schar.VirtualRep.irreducible(eta), hooks
                )
                piece = fock.FockVector(
                    {lam: c for lam, c in induced.terms.items()}
                )
                acc = acc + piece.scale(coeff)
            if acc != out:
                _oracle_mismatch(payload, "characteristic of induction differs")
            payload["oracle_checked"] = True
        emit(payload)
    else:  # b-tau
        tau = parse_partition(args.tau)
        out = fock.b_tau(tau, args.b, x)
        payload = out.to_json()
        if args.oracle:
            g = symfunc.plethysm_pb(symfunc.SymFunc.schur(tau), args.b)
            acc = fock.FockVector.zero()
            for eta, coeff in x.terms():
                prod = symfunc.schur_multiply(g, symfunc.SymFunc.schur(eta))
                piece = fock.FockVector(
                    {lam: coeff * fock.LaurentScalar.from_rational(c) for lam, c in prod.terms.items()}
                )
                acc = acc + piece
            if acc != out:
                _oracle_mismatch(payload, "iterated-Pieri product differs")
            payload["oracle_checked"] = True
        emit(payload)


def cmd_heis_modp(args) -> None:
    x = _input_vector(args)
    tau = parse_partition(args.tau)
    out = fock.heis_modp(tau, args.b, args.p, x)
    payload = out.to_json()
    if args.oracle:
        if oracles.heis_modp_koszul(tau, args.b, args.p, x) != out:
            _oracle_mismatch(payload, "Koszul layers differ")
        payload["oracle_checked"] = True
    emit(payload)


def cmd_label_image(args) -> None:
    lam = cherednik.ParamLambda(args.a, args.b)
    eta = parse_partition(args.eta)
    tau = parse_partition(args.tau)
    if args.m is not None:
        label = cherednik.SimpleLabel(eta, parse_rational(args.m))
    else:
        label = cherednik.preferred_label(eta, lam)
    if args.direction == "pos":
        images = cherednik.simple_image_pos(label, tau, lam)
    else:
        images = cherednik.simple_image_neg(label, tau, lam)
    emit(
        {
            "input": label.to_json(),
            "images": [
                {"label": l.to_json(), "mult": mult} for l, mult in images
            ],
        }
    )


def cmd_supports(args) -> None:
    rows = cherednik.possible_supports(args.n, args.b)
    emit([{"k": k, "l": l, "dim": dim} for k, l, dim in rows])


def cmd_stability(args) -> None:
    lo, hi = cherednik.p_stability_interval(args.z, args.p, args.n)
    emit({"lo": lo, "hi": hi})


def cmd_verma_hilbert(args) -> None:
    eta = parse_partition(args.eta)
    series = cherednik.verma_hilbert(eta, parse_rational(args.m), args.max_deg)
    payload = series.to_json()
    if args.oracle:
        for d in range(args.max_deg + 1):
            mult = oracles.polynomial_multiplicities(eta.size, d).get(eta, 0)
            if mult != series.coeffs[d]:
                _oracle_mismatch(payload, f"monomial decomposition differs at q^{d}")
        payload["oracle_checked"] = True
    emit(payload)


def cmd_pipeline(args) -> None:
    lam = cherednik.ParamLambda(args.a, args.b)
    eta = parse_partition(args.eta)
    if args.unit_table:
        from .partitions import coprime_decompose

        mu = Partition() if lam.b == 1 else coprime_decompose(eta, lam.b)[0]
        table = {mu: fock.FockVector.basis(mu), eta: fock.FockVector.basis(eta)}
    else:
        if not args.table:
            raise InvalidInput("supply --table JSON or --unit-table")
        data = _parse_json_arg(args.table)
        try:
            table = {
                Partition.from_json(entry["mu"]): fock.FockVector.from_json(entry["vector"])
                for entry in data["entries"]
            }
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"malformed table JSON: {data!r}") from exc
    out = cherednik.character_pipeline(eta, lam, args.p, table)
    payload = out.to_json()
    if args.oracle:
        if oracles.character_pipeline_koszul(eta, lam.b, args.p, table) != out:
            _oracle_mismatch(payload, "Koszul layers differ")
        payload["oracle_checked"] = True
    emit(payload)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fockheis",
        description="Exact partition, character and Fock-space calculator (JSON output).",
    )
    top.add_argument("--output", help="write the JSON result to a file instead of stdout")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition statistics and decomposition")
    ps = p.add_subparsers(dest="action", required=True)
    st = ps.add_parser("stats")
    st.add_argument("--eta", required=True)
    st.set_defaults(func=cmd_partition, action="stats")
    dec = ps.add_parser("decompose")
    dec.add_argument("--eta", required=True)
    dec.add_argument("--b", type=int, required=True)
    dec.set_defaults(func=cmd_partition, action="decompose")

    p = sub.add_parser("char-table", help="symmetric group character table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_char_table)

    p = sub.add_parser("lr", help="product of two Schur functions")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_lr)

    p = sub.add_parser("kronecker", help="internal tensor product of irreducibles")
    p.add_argument("--sigma", required=True)
    p.add_argument("--lam", required=True)
    p.set_defaults(func=cmd_kronecker)

    p = sub.add_parser("symfunc", help="symmetric function arithmetic")
    ps = p.add_subparsers(dest="action", required=True)
    mul = ps.add_parser("multiply")
    mul.add_argument("--f", required=True)
    mul.add_argument("--g", required=True)
    mul.add_argument("--oracle", action="store_true")
    mul.set_defaults(func=cmd_symfunc, action="multiply")
    ple = ps.add_parser("plethysm")
    ple.add_argument("--tau")
    ple.add_argument("--f")
    ple.add_argument("--b", type=int, required=True)
    ple.add_argument("--oracle", action="store_true")
    ple.set_defaults(func=cmd_symfunc, action="plethysm")

    p = sub.add_parser("heis", help="raising operators on Fock vectors")
    ps = p.add_subparsers(dest="action", required=True)
    bop = ps.add_parser("b-op")
    bop.add_argument("--i", type=int, required=True)
    bop.add_argument("--b", type=int, required=True)
    bop.add_argument("--oracle", action="store_true")
    _vector_flags(bop)
    bop.set_defaults(func=cmd_heis, action="b-op")
    btau = ps.add_parser("b-tau")
    btau.add_argument("--tau", required=True)
    btau.add_argument("--b", type=int, required=True)
    btau.add_argument("--oracle", action="store_true")
    _vector_flags(btau)
    btau.set_defaults(func=cmd_heis, action="b-tau")

    p = sub.add_parser("heis-modp", help="graded raising operator mod p")
    p.add_argument("--tau", required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    _vector_flags(p)
    p.set_defaults(func=cmd_heis_modp)

    p = sub.add_parser("label-image", help="simple label images under raising")
    p.add_argument("direction", choices=["pos", "neg"])
    p.add_argument("--eta", required=True)
    p.add_argument("--m")
    p.add_argument("--tau", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(func=cmd_label_image)

    p = sub.add_parser("supports", help="possible support strata dimensions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(func=cmd_supports)

    p = sub.add_parser("stability-interval", help="p-stability interval around z")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("verma-hilbert", help="graded dimension series of a standard module")
    p.add_argument("--eta", required=True)
    p.add_argument("--m", default="0")
    p.add_argument("--max-deg", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_verma_hilbert)

    p = sub.add_parser("pipeline", help="graded simple class from coprime table")
    p.add_argument("--eta", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--table")
    p.add_argument("--unit-table", action="store_true")
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_pipeline)

    return top


def _vector_flags(parser) -> None:
    parser.add_argument("--vacuum", action="store_true", help="start from the empty partition")
    parser.add_argument("--eta", help="single basis partition")
    parser.add_argument("--x", help="Fock vector as JSON (or @file)")


def main(argv=None) -> int:
    global _output_path
    parser = build_parser()
    args = parser.parse_args(argv)
    _output_path = args.output
    try:
        args.func(args)
    except InputError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 3
    except SystemExit as exc:
        return int(exc.code or 0)
    finally:
        _output_path = None
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
