"""Command-line frontend.

Exit codes: 0 success, 2 parse error (including an input file that cannot
be read or decoded), 3 precondition violated (including reducer refusals
and an output path that cannot be written), 4 enumeration cap exceeded
(including a domain over ``max_domain``), 5 verification failure.
All outputs are deterministic.
``RELRED_CAPS`` is read once per run, and every cap check of the command
reads those caps (``caps.using``) until the run ends.
``verify`` evaluates a bundle once: loading it builds the certificate,
which verifies by evaluation, and the verdict reuses that result;
``formula.check_certificate`` re-evaluates, for callers holding a
certificate object that may have been altered since it was built.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import analysis, core, dependencies, diagrams, formula, reducers
from .caps import from_env, using
from .errors import (
    CapExceededError,
    ParseError,
    PreconditionError,
    ReductionRefused,
    RelredError,
    VerificationError,
)

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_CAP = 4
EXIT_VERIFY = 5


def _echo(message: str, err: bool = False, nl: bool = True) -> None:
    # click.echo without a file caches each stream object for good, so an
    # in-process caller that captures the output would never free it
    stream = click.get_text_stream("stderr" if err else "stdout", errors=None)
    click.echo(message, file=stream, nl=nl)


class _Main(click.Group):
    """The command group: a relred error, or an ``OSError`` on an output
    path, ends the run with one line on stderr and its exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ParseError as e:
            _echo(f"parse error: {e}", err=True)
            sys.exit(EXIT_PARSE)
        except CapExceededError as e:
            _echo(f"cap exceeded: {e}", err=True)
            sys.exit(EXIT_CAP)
        except ReductionRefused as e:
            _echo(f"refused ({e.reason}): {e}", err=True)
            sys.exit(EXIT_PRECONDITION)
        except VerificationError as e:
            _echo(f"verification failed: {e}", err=True)
            sys.exit(EXIT_VERIFY)
        except (RelredError, OSError) as e:
            _echo(f"error: {e}", err=True)
            sys.exit(EXIT_PRECONDITION)


def _load_rel(path: str):
    return core.load_relation(formula._read_text(path, f"relation file {path!r}"))


def _load_formula(path: str):
    return formula.parse(formula._read_text(path, f"formula file {path!r}"))


def _load_cert(path: str):
    if os.path.isdir(path):
        path = os.path.join(path, "certificate.json")
    return formula.load_certificate(path)


def _parse_attr_list(text: str) -> list[str]:
    return [a for a in text.split(",") if a]


def _parse_blocks(text: str) -> list[list[str]]:
    return [_parse_attr_list(b) for b in text.split("|")]


def _one_mode(names: str, *values) -> None:
    """Refuse a call that gives none, or more than one, of the modes
    ``names`` lists; an unset mode is None, or False for a flag."""
    if sum(v is not None and v is not False for v in values) != 1:
        raise PreconditionError(f"pick one of {names}")


def _emit(ctx, to_json, to_text):
    """Print the JSON payload under ``--format json`` and the text one
    otherwise; each is a function, and only the one printed is called."""
    _echo(to_json() if ctx.obj["format"] == "json" else to_text())


def _verdict(ctx, cert, out, key, label):
    """Save ``cert`` to the bundle ``out`` when both are given, then print
    whether there is one, as ``{key: bool}`` or ``label: yes|no``."""
    if cert is not None and out:
        formula.save_certificate(cert, out)
    found = cert is not None
    _emit(ctx, lambda: json.dumps({key: found}),
          lambda: f"{label}: {'yes' if found else 'no'}")


@click.group(cls=_Main)
@click.option("--format", "fmt", type=click.Choice(["json", "text", "csv"]),
              default="text", help="output format")
@click.pass_context
def main(ctx, fmt):
    """Attributed-relation algebra, reductions, and diagrams."""
    ctx.ensure_object(dict)
    ctx.obj["format"] = fmt
    ctx.with_resource(using(from_env()))


@main.command("eval")
@click.argument("formula_file", type=click.Path(exists=True))
@click.option("--env", "env_files", multiple=True, required=True,
              type=click.Path(exists=True), help="relation files; the symbol "
              "is taken from the @relation header")
@click.option("--free", default=None, help="comma-separated free variables "
              "(checked against the formula)")
@click.option("-o", "--out", type=click.Path(), default=None)
@click.pass_context
def eval_cmd(ctx, formula_file, env_files, free, out):
    """Evaluate a formula file against an environment of relations."""
    f = _load_formula(formula_file)
    env = dict(_load_rel(path) for path in env_files)
    free_order = _parse_attr_list(free) if free else None
    value = formula.evaluate(f, env, free_order)
    text = core.dump_relation(value, "result")
    if out:
        formula._write_text(out, text)
    else:
        _echo(text, nl=False)


@main.command("deps")
@click.argument("rel_file", type=click.Path(exists=True))
@click.option("--fd", default=None, help="L:M functional dependency check")
@click.option("--keys", "keys_k", type=int, default=None, help="find all k-keys")
@click.option("--mvd", default=None, help="M:B1|B2|... multivalued dependency")
@click.option("--admits", type=int, default=None, help="k-key admission test")
@click.pass_context
def deps_cmd(ctx, rel_file, fd, keys_k, mvd, admits):
    """Dependency reports for a relation."""
    _, rel = _load_rel(rel_file)
    _one_mode("--fd, --keys, --mvd, --admits", fd, keys_k, mvd, admits)
    if fd is not None:
        lhs, _, rhs = fd.partition(":")
        report = dependencies.functional_dep(
            rel, _parse_attr_list(lhs), _parse_attr_list(rhs)
        )
        _emit(ctx, report.to_json, report.to_text)
    elif keys_k is not None:
        keys = dependencies.find_keys(rel, keys_k)
        _emit(
            ctx,
            lambda: json.dumps([list(k) for k in keys]),
            lambda: "\n".join(",".join(k) for k in keys) or "(none)",
        )
    elif mvd is not None:
        m, _, blocks = mvd.partition(":")
        report = dependencies.mvd_holds(
            rel, _parse_attr_list(m), _parse_blocks(blocks)
        )
        _emit(ctx, report.to_json, report.to_text)
    else:
        ok = dependencies.admits_key(rel, admits)
        _emit(ctx, lambda: json.dumps({"admits": ok, "k": admits}),
              lambda: f"admits {admits}-key: {'yes' if ok else 'no'}")


@main.command("reduce")
@click.argument("rel_file", type=click.Path(exists=True))
@click.option("--key", default=None, help="comma-separated key attributes")
@click.option("--fagin", default=None, help="M:B1|B2|...")
@click.option("--hypostatic", type=int, default=None, help="parameter count k")
@click.option("--neg-join", "neg_join", type=click.Path(exists=True),
              default=None, help="join certificate for R; produces one for not-R")
@click.option("-k", "k_param", type=int, default=1,
              help="parameter count for --neg-join")
@click.option("--identity-chain", "chain_n", type=int, default=None,
              help="chain length n (the relation file only supplies the domain)")
@click.option("-o", "--out", type=click.Path(), default="certificate",
              help="output bundle directory")
@click.pass_context
def reduce_cmd(ctx, rel_file, key, fagin, hypostatic, neg_join, k_param,
               chain_n, out):
    """Produce a verified reduction certificate bundle."""
    _, rel = _load_rel(rel_file)
    _one_mode("--key, --fagin, --hypostatic, --neg-join, --identity-chain",
              key, fagin, hypostatic, neg_join, chain_n)
    if key is not None:
        cert = reducers.key_reduction(rel, _parse_attr_list(key))
    elif fagin is not None:
        m, _, blocks = fagin.partition(":")
        cert = reducers.fagin_decompose(
            rel, _parse_attr_list(m), _parse_blocks(blocks)
        )
    elif hypostatic is not None:
        cert = reducers.hypostatic_abstraction(rel, hypostatic)
    elif neg_join is not None:
        join_cert = _load_cert(neg_join)
        cert = reducers.neg_join_projoin(join_cert, k_param)
    else:
        cert = reducers.identity_chain(chain_n, rel.domain)
    path = formula.save_certificate(cert, out)
    _echo(path)


@main.command("explicate")
@click.argument("cert_file", type=click.Path(exists=True))
@click.option("-o", "--out", type=click.Path(), default="explicated")
@click.pass_context
def explicate_cmd(ctx, cert_file, out):
    """Explicate a projoin certificate into a bond certificate."""
    cert = _load_cert(cert_file)
    result = diagrams.explicate_certificate(cert)
    _echo(formula.save_certificate(result, out))


@main.command("merge")
@click.argument("cert_file", type=click.Path(exists=True))
@click.option("-o", "--out", type=click.Path(), default="merged")
@click.pass_context
def merge_cmd(ctx, cert_file, out):
    """Merge-complete a subternaric bond certificate."""
    cert = _load_cert(cert_file)
    result = diagrams.merge_complete(cert)
    _echo(formula.save_certificate(result, out))


@main.command("diagram")
@click.argument("source", type=click.Path(exists=True))
@click.option("--dot", "dot_out", type=click.Path(), default=None,
              help="write DOT here instead of stdout")
@click.option("--stats/--no-stats", default=False,
              help="also print bond graph statistics")
@click.pass_context
def diagram_cmd(ctx, source, dot_out, stats):
    """Bonding diagram of a formula file or certificate bundle."""
    if source.endswith(".json") or os.path.isdir(source):
        f = _load_cert(source).formula
    else:
        f = _load_formula(source)
    graph = diagrams.build_projoin_graph(formula.normalize(f))
    dg = diagrams.to_bonding_diagram(graph)
    text = diagrams.emit_dot(dg)
    if dot_out:
        formula._write_text(dot_out, text)
    else:
        _echo(text, nl=False)
    if stats:
        st = diagrams.bond_graph_stats(dg)
        _emit(ctx, st.to_json,
              lambda: f"V={st.V} E={st.E} C={st.C} K={st.K} I={st.I} II={st.II} III={st.III}")


@main.command("ternarity")
@click.argument("rel_file", type=click.Path(exists=True))
@click.option("--certs", multiple=True, type=click.Path(exists=True))
@click.pass_context
def ternarity_cmd(ctx, rel_file, certs):
    """Ternarity interval for a relation."""
    _, rel = _load_rel(rel_file)
    loaded = [_load_cert(c) for c in certs]
    report = diagrams.ternarity_bounds(rel, loaded)
    hi = "inf" if report.upper is None else report.upper
    _emit(ctx, report.to_json,
          lambda: f"ter in [{report.lower}, {hi}] (arity {report.arity})")


@main.command("analyze")
@click.argument("rel_file", type=click.Path(exists=True))
@click.option("--degenerate", is_flag=True)
@click.option("--join-reducible", is_flag=True)
@click.option("--relprod2", default=None,
              help="comma-separated left block of the bipartition")
@click.option("--one-param", is_flag=True)
@click.option("--oracle-suite", is_flag=True)
@click.option("-o", "--out", type=click.Path(), default=None,
              help="bundle directory for produced certificates")
@click.pass_context
def analyze_cmd(ctx, rel_file, degenerate, join_reducible, relprod2, one_param,
                oracle_suite, out):
    """Exact deciders: degeneracy, join reducibility, relative products."""
    _, rel = _load_rel(rel_file)
    _one_mode("--degenerate, --join-reducible, --relprod2, --one-param, --oracle-suite",
              degenerate, join_reducible, relprod2, one_param, oracle_suite)
    if relprod2 is not None:
        cert = analysis.rel_prod_reducible2(rel, _parse_attr_list(relprod2))
        _verdict(ctx, cert, out, "reducible", "relprod2")
    elif degenerate:
        witness = analysis.is_degenerate(rel)
        _emit(ctx,
              lambda: json.dumps({"degenerate": witness is not None,
                                  "witness": [list(b) for b in witness] if witness else None}),
              lambda: "degenerate: " + ("|".join(",".join(b) for b in witness)
                                         if witness else "no"))
    elif join_reducible:
        _verdict(ctx, analysis.is_join_reducible(rel), out, "join_reducible", "join reducible")
    elif one_param:
        _verdict(ctx, analysis.one_param_ternary_projoin(rel), out,
                 "one_param_reducible", "one-parameter projoin")
    else:
        evidence = analysis.ternary_oracle_suite(rel)
        _emit(ctx, lambda: json.dumps(evidence),
              lambda: "\n".join(json.dumps(e) for e in evidence))


@main.command("census")
@click.option("--d", "d", type=int, required=True)
@click.option("--n", "n", type=int, required=True)
@click.option("--sample", type=int, default=None,
              help="sampled census with this many draws")
@click.option("--seed", type=int, default=0)
@click.pass_context
def census_cmd(ctx, d, n, sample, seed):
    """Count degenerate and join-reducible relations on D^n."""
    if sample is not None:
        row = analysis.census_sampled(d, n, sample, seed)
    else:
        row = analysis.census(d, n)
    if ctx.obj["format"] == "json":
        _echo(row.to_json())
    else:
        _echo(analysis.CENSUS_CSV_HEADER)
        _echo(row.to_csv_row())


@main.command("verify")
@click.argument("cert_file", type=click.Path(exists=True))
@click.pass_context
def verify_cmd(ctx, cert_file):
    """Re-check a certificate bundle; exit 5 when it does not verify."""
    try:
        cert = _load_cert(cert_file)
    except VerificationError as e:
        _echo(f"invalid: {e}", err=True)
        sys.exit(EXIT_VERIFY)
    # loading verified the bundle by evaluation, so it is not evaluated again
    verdict = formula.certificate_verdict(cert, valid=True)
    _emit(ctx, verdict.to_json,
          lambda: f"valid kind={verdict.classification.kind if verdict.classification else '?'}"
                  f" factors={list(verdict.factor_arities)}")


if __name__ == "__main__":
    main()
