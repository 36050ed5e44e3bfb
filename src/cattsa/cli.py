"""Command-line front end: definition environment, elaboration, commands.

Exit codes: 0 success (or "equal"), 1 type error or "not equal", 2 usage
or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import reduction
from .errors import CattError, ElaborationError, SurfaceSyntaxError, bounded
from .insertion import InsertionProblem, insert_ctx
from .parser import (
    SourceFile,
    SrcApp,
    SrcArrow,
    SrcDecl,
    SrcStar,
    SrcTerm,
    SrcType,
    SrcVar,
    Span,
    parse,
    parse_telescope,
)
from .pasting import maximal_vars, unbiased_type
from .syntax import (
    STAR,
    Arr,
    Coh,
    Context,
    Substitution,
    Term,
    Type,
    Var,
    alpha_eq,
    apply_sub_term,
    apply_sub_type,
    dim_term,
    dim_type,
    identity_sub,
    term_boundary,
    term_str,
    type_boundary,
    type_str,
    var_sub,
)
from .trees import ctx_to_tree, tree_to_bracket
from .typecheck import Mode, check_ctx, check_term, check_type, equal, infer_report


@dataclass(frozen=True)
class Decl:
    kind: str  # "coh" | "def"
    name: str
    ctx: Context
    ty: Type
    body: Optional[Term]  # None for coh

    def value(self) -> Term:
        """The kernel term this declaration names, over its own telescope."""
        if self.kind == "coh":
            return Coh(self.ctx, self.ty, identity_sub(self.ctx))
        assert self.body is not None
        return self.body


Env = dict[str, Decl]


# ---------------------------------------------------------------------------
# Elaboration
# ---------------------------------------------------------------------------


def _raw_type(ctx: Context, t: Term) -> Type:
    """Type synthesis without validation, used to fill in arrow bases."""
    if isinstance(t, Var):
        return ctx.lookup(t.name)
    assert isinstance(t, Coh)
    return apply_sub_type(t.ty, t.sub)


def elaborate_term(src: SrcTerm, ctx: Context, env: Env) -> Term:
    if isinstance(src, SrcVar):
        if ctx.has(src.name):
            return Var(src.name)
        if src.name in env:
            return apply_decl(env[src.name], (), ctx, src.span)
        # Unbound variables flow through so the typechecker reports them.
        return Var(src.name)
    assert isinstance(src, SrcApp)
    if src.name not in env:
        raise ElaborationError(
            f"unknown declaration '{src.name}'", src.span.line, src.span.col
        )
    args = tuple(elaborate_term(a, ctx, env) for a in src.args)
    return apply_decl(env[src.name], args, ctx, src.span)


def elaborate_type(src: SrcType, ctx: Context, env: Env) -> Type:
    if isinstance(src, SrcStar):
        return STAR
    assert isinstance(src, SrcArrow)
    s = elaborate_term(src.src, ctx, env)
    t = elaborate_term(src.tgt, ctx, env)
    try:
        base = _raw_type(ctx, s)
    except CattError as exc:
        raise ElaborationError(
            f"cannot determine the type of '{term_str(s)}': {exc}",
            src.span.line,
            src.span.col,
        ) from exc
    return Arr(s, base, t)


def apply_decl(decl: Decl, args: tuple[Term, ...], ambient: Context, span: Span) -> Term:
    """Instantiate a declaration with positional arguments.

    Arguments bind the locally maximal telescope variables (or all of them
    when the full count is supplied); the omitted boundary entries are
    recomputed from the given arguments.
    """
    tele = decl.ctx
    maximal = maximal_vars(tele)
    if len(args) == len(tele.vars):
        assignment = dict(zip(tele.vars, args))
    elif len(args) == len(maximal):
        assignment = dict(zip(maximal, args))
        for v, t in zip(maximal, args):
            v_ty = tele.lookup(v)
            dv = dim_type(v_ty)
            try:
                dt = dim_term(ambient, t)
            except CattError as exc:
                raise ElaborationError(
                    f"argument '{term_str(t)}' for '{v}' of '{decl.name}': {exc}",
                    span.line,
                    span.col,
                ) from exc
            if dt < dv:
                raise ElaborationError(
                    f"argument '{term_str(t)}' for '{v}' of '{decl.name}' has "
                    f"dimension {dt}, needs at least {dv}",
                    span.line,
                    span.col,
                )
            for m in range(dv):
                for sign in ("-", "+"):
                    pattern = type_boundary(v_ty, m, sign)
                    if isinstance(pattern, Var) and pattern.name not in assignment:
                        assignment[pattern.name] = term_boundary(ambient, t, m, sign)
    else:
        raise ElaborationError(
            f"'{decl.name}' takes {len(maximal)} arguments "
            f"(or all {len(tele.vars)}), got {len(args)}",
            span.line,
            span.col,
        )
    missing = [v for v in tele.vars if v not in assignment]
    if missing:
        raise ElaborationError(
            f"cannot infer argument for '{missing[0]}' of '{decl.name}'",
            span.line,
            span.col,
        )
    sigma = Substitution(tuple((v, assignment[v]) for v in tele.vars))
    if decl.kind == "coh":
        return Coh(decl.ctx, decl.ty, sigma)
    assert decl.body is not None
    return apply_sub_term(decl.body, sigma)


def elaborate_file(src: SourceFile) -> Env:
    """Build the environment; names are unique and expanded in order."""
    env: Env = {}
    for d in src.decls:
        if d.name in env:
            raise ElaborationError(
                f"duplicate declaration '{d.name}'", d.span.line, d.span.col
            )
        try:
            env[d.name] = elaborate_decl(d, env)
        except RecursionError:
            # def expansion can nest a term deeper than its source, past
            # what the recursive kernel functions can traverse
            raise ElaborationError(
                f"'{d.name}' expands to a term nested too deeply",
                d.span.line,
                d.span.col,
            ) from None
    return env


def elaborate_decl(d: SrcDecl, env: Env) -> Decl:
    ctx = Context()
    for v, src_ty in d.telescope:
        if ctx.has(v):
            raise ElaborationError(
                f"duplicate telescope variable '{v}'", d.span.line, d.span.col
            )
        ctx = ctx.extend(v, elaborate_type(src_ty, ctx, env))
    ty = elaborate_type(d.ty, ctx, env)
    body = None
    if d.kind == "def":
        assert d.body is not None
        body = elaborate_term(d.body, ctx, env)
    return Decl(d.kind, d.name, ctx, ty, body)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _load(path: str) -> tuple[SourceFile, Env]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    src = parse(text)
    return src, elaborate_file(src)


def _check_decl(decl: Decl, mode: Mode, allow: bool = True) -> tuple[bool, str]:
    report = check_ctx(decl.ctx, mode, allow_disc_insertion=allow)
    if not report.ok:
        return False, report.message
    if decl.kind == "coh":
        report = infer_report(decl.ctx, decl.value(), mode, allow_disc_insertion=allow)
        if not report.ok:
            return False, report.message
        return True, f"coh {decl.name}: ok"
    report = check_type(decl.ctx, decl.ty, mode, allow_disc_insertion=allow)
    if not report.ok:
        return False, report.message
    assert decl.body is not None
    report = check_term(decl.ctx, decl.body, decl.ty, mode, allow_disc_insertion=allow)
    if not report.ok:
        return False, report.message
    return True, f"def {decl.name}: ok"


def cmd_check(args: argparse.Namespace) -> int:
    mode, allow = Mode(args.mode), not args.no_disc_insertion
    src, env = _load(args.file)
    results = []
    ok = True
    for d in src.decls:
        decl_ok, message = _check_decl(env[d.name], mode, allow)
        if not decl_ok:
            message = f"{d.span.line}:{d.span.col}: {message}"
        ok = ok and decl_ok
        results.append(
            {
                "name": d.name,
                "ok": decl_ok,
                "line": d.span.line,
                "col": d.span.col,
                "message": message,
            }
        )
    if args.json:
        print(json.dumps({"command": "check", "mode": mode.value, "ok": ok, "results": results}, indent=2))
    else:
        for r in results:
            print(r["message"])
    return 0 if ok else 1


def _resolve(env: Env, name: str) -> Decl:
    if name not in env:
        raise ElaborationError(f"no declaration named '{name}'")
    return env[name]


def cmd_normalize(args: argparse.Namespace) -> int:
    mode, allow = Mode(args.mode), not args.no_disc_insertion
    _, env = _load(args.file)
    decl = _resolve(env, args.name)
    term = decl.value()
    report = infer_report(decl.ctx, term, mode, allow_disc_insertion=allow)
    if not report.ok:
        print(report.message, file=sys.stderr)
        return 1
    trace: list[str] = []
    normal = reduction.normalize_term(decl.ctx, term, allow_disc_insertion=allow, trace=trace)
    if args.json:
        out = {
            "command": "normalize",
            "mode": mode.value,
            "name": args.name,
            "normal_form": term_str(normal),
            "trace": trace,
        }
        print(json.dumps(out, indent=2))
    else:
        if args.trace:
            for line in trace:
                print(line)
        print(term_str(normal))
    return 0


@bounded
def _comparable_values(env: Env, name1: str, name2: str) -> tuple[Context, Term, Term]:
    d1 = _resolve(env, name1)
    d2 = _resolve(env, name2)
    if not alpha_eq(d1.ctx, d2.ctx):
        raise CattError(
            f"'{name1}' and '{name2}' have different telescopes and "
            "cannot be compared"
        )
    t2 = d2.value()
    if d1.ctx.vars != d2.ctx.vars:
        t2 = apply_sub_term(t2, var_sub(dict(zip(d2.ctx.vars, d1.ctx.vars)), t2))
    return d1.ctx, d1.value(), t2


def cmd_eq(args: argparse.Namespace) -> int:
    mode, allow = Mode(args.mode), not args.no_disc_insertion
    _, env = _load(args.file)
    ctx, t1, t2 = _comparable_values(env, args.name1, args.name2)
    for name, t in ((args.name1, t1), (args.name2, t2)):
        report = infer_report(ctx, t, mode, allow_disc_insertion=allow)
        if not report.ok:
            print(f"{name}: {report.message}", file=sys.stderr)
            return 1
    same = equal(mode, ctx, t1, t2, allow_disc_insertion=allow)
    verdict = "equal" if same else "not equal"
    if args.json:
        print(
            json.dumps(
                {
                    "command": "eq",
                    "mode": mode.value,
                    "names": [args.name1, args.name2],
                    "equal": same,
                },
                indent=2,
            )
        )
    else:
        print(verdict)
    return 0 if same else 1


def cmd_infer(args: argparse.Namespace) -> int:
    mode, allow = Mode(args.mode), not args.no_disc_insertion
    _, env = _load(args.file)
    decl = _resolve(env, args.name)
    term = decl.value()
    report = infer_report(decl.ctx, term, mode, allow_disc_insertion=allow)
    if not report.ok:
        print(report.message, file=sys.stderr)
        return 1
    assert report.inferred is not None
    inferred = report.inferred
    if mode is Mode.CATT_SA:
        inferred = reduction.normalize_type(decl.ctx, inferred, allow_disc_insertion=allow)
    if args.json:
        print(
            json.dumps(
                {
                    "command": "infer",
                    "mode": mode.value,
                    "name": args.name,
                    "type": type_str(inferred),
                },
                indent=2,
            )
        )
    else:
        print(type_str(inferred))
    return 0


def _context_of_tree_arg(args: argparse.Namespace, env: Env | None) -> Context:
    if args.context:
        ctx = Context()
        for v, src_ty in parse_telescope(args.context):
            ctx = ctx.extend(v, elaborate_type(src_ty, ctx, {}))
        return ctx
    assert env is not None and args.name
    return _resolve(env, args.name).ctx


def cmd_tree(args: argparse.Namespace) -> int:
    env: Env | None = None
    if args.file:
        _, env = _load(args.file)
    if not args.context and not (args.file and args.name):
        print("tree: need FILE NAME or --context LITERAL", file=sys.stderr)
        return 2
    ctx = _context_of_tree_arg(args, env)
    t = ctx_to_tree(ctx)
    if args.insert:
        if env is None or not args.inner:
            print("tree --insert needs FILE, NAME and --inner", file=sys.stderr)
            return 2
        inner_ctx = _resolve(env, args.inner).ctx
        problem = InsertionProblem(ctx, args.insert, inner_ctx, unbiased_type(inner_ctx))
        result = insert_ctx(problem)
        out_tree = ctx_to_tree(result.inserted)
        if args.json:
            print(
                json.dumps(
                    {
                        "command": "tree",
                        "outer": tree_to_bracket(t),
                        "inner": tree_to_bracket(ctx_to_tree(inner_ctx)),
                        "at": args.insert,
                        "inserted": tree_to_bracket(out_tree),
                    },
                    indent=2,
                )
            )
        else:
            print(tree_to_bracket(out_tree))
        return 0
    if args.json:
        print(json.dumps({"command": "tree", "tree": tree_to_bracket(t)}, indent=2))
    else:
        print(tree_to_bracket(t))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["catt", "sa"], default="sa")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--no-disc-insertion",
        action="store_true",
        help="reject disc-shaped inner contexts in the insertion redex",
    )


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cattsa",
        description="Typecheck and normalise terms of weak and strictly "
        "associative infinity-categories",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="typecheck every declaration in a file")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("normalize", help="print the normal form of a declaration")
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("--trace", action="store_true", help="print each reduction step")
    _add_common(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("eq", help="decide equality of two declarations")
    p.add_argument("file")
    p.add_argument("name1")
    p.add_argument("name2")
    _add_common(p)
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("infer", help="print the inferred type of a declaration")
    p.add_argument("file")
    p.add_argument("name")
    _add_common(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("tree", help="print the Batanin tree of a pasting telescope")
    p.add_argument("file", nargs="?")
    p.add_argument("name", nargs="?")
    p.add_argument("--context", help="telescope literal, e.g. '(x : *) (y : *) (f : x -> y)'")
    p.add_argument("--insert", metavar="VAR", help="insert --inner at this variable")
    p.add_argument("--inner", metavar="NAME", help="declaration whose telescope is inserted")
    _add_common(p)
    p.set_defaults(func=cmd_tree)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SurfaceSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"cannot read file: {exc}", file=sys.stderr)
        return 2
    except CattError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
