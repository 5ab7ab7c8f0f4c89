"""Run one `siegel` command with spans around the public entry points of
the seven layers, and write the spans out when the command ends.

    python3 perfbench/tracer.py SPANS.json -- verify --suite dims --q 2 --format json

The wrappers are installed from outside the package: in the defining module
and in every `siegelvec` namespace (and module-level dict, such as
`cli.SUITES`) that holds the same function, so calls inside the package go
through the spans too. Per-element operations (`gl2_mul`, `FqCtx` arithmetic,
`PadicScalar` arithmetic, character evaluation, `TensorModel.mat`) run
millions of times per command and are not wrapped; `probes.py` measures
them. Spans are kept in memory and written as JSON when the command returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = ("numerics", "finitegrp", "chars", "models", "padic", "support", "cli")

# (layer, qualified name) of every wrapped entry point.
WRAPPED = (
    ("numerics", "certify_integer"),
    ("finitegrp", "build_field"),
    ("finitegrp", "enumerate_gl2"),
    ("finitegrp", "enumerate_gl22"),
    ("finitegrp", "subgroup_R"),
    ("finitegrp", "subgroup_closure"),
    ("finitegrp", "conjugate_subgroups"),
    ("chars", "cuspidal_classes"),
    ("chars", "omega_trivial_sigma_classes"),
    ("chars", "sigma_is_reducible"),
    ("chars", "make_sigma"),
    ("chars", "is_self_twisted"),
    ("chars", "self_twist_presentations"),
    ("chars", "lambda_omega_class"),
    ("chars", "fixed_dim"),
    ("chars", "fixed_dim_u_twist"),
    ("chars", "fixed_dim_closed"),
    ("chars", "twisted_trace_closed"),
    ("chars", "induced_trace_zero"),
    ("models", "WhittakerSpace.__init__"),
    ("models", "CuspidalModel.__init__"),
    ("models", "cuspidal_model"),
    ("models", "TensorModel.__init__"),
    ("models", "TensorModel.fixed_rank"),
    ("models", "TensorModel.fixed_rank_twisted"),
    ("models", "ConstituentModel.fixed_rank"),
    ("models", "commutant_dim"),
    ("models", "decompose"),
    ("models", "model_for_sigma"),
    ("models", "swap_operator"),
    ("models", "ww_operator"),
    ("models", "u_intertwiner"),
    ("models", "twisted_trace"),
    ("padic", "PadicCtx.__init__"),
    ("padic", "coset_rep"),
    ("padic", "witness_Rg"),
    ("padic", "compute_Rg"),
    ("padic", "radical_obstruction"),
    ("padic", "run_identity"),
    ("support", "enumerate_support"),
    ("support", "al_fixed_cosets"),
    ("support", "stratum_count"),
    ("support", "fixed_stratum_count"),
    ("support", "total_count"),
    ("support", "base_count"),
    ("support", "classify_pairing"),
    ("support", "dim_formula"),
    ("support", "al_formula"),
    ("support", "assemble_dim"),
    ("support", "assemble_al"),
    ("cli", "main"),
    ("cli", "cmd_table"),
    ("cli", "cmd_support"),
    ("cli", "cmd_verify"),
    ("cli", "_render"),
) + tuple(("cli", f"suite_{s}") for s in (
    "counts", "fixed_dims", "oracle", "twists", "induced", "identities", "rg",
    "dims", "signatures"))


def _rg_counts(result) -> list[int]:
    return [result.draws, result.accepted]


# Extra data read from a wrapped function's return value.
RESULT_HOOKS = {"padic.compute_Rg": _rg_counts}


class Tracer:
    """Span store: [name, start_ns, end_ns, parent index, extra] per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                rec[4] = hook(result)
            return result

        return traced

    def install(self) -> list[str]:
        modules = [importlib.import_module(f"siegelvec.{m}") for m in LAYERS]
        done = []
        for layer, qualname in WRAPPED:
            mod = sys.modules[f"siegelvec.{layer}"]
            name = f"{layer}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, attr, self.wrap(cls.__dict__[attr], name))
            else:
                orig = getattr(mod, qualname)
                wrapper = self.wrap(orig, name)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapper)
                        elif isinstance(val, dict):
                            for k2, v2 in list(val.items()):
                                if v2 is orig:
                                    val[k2] = wrapper
            done.append(name)
        return done


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <siegel arguments>", file=sys.stderr)
        return 4
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    wrapped = tracer.install()
    cli = sys.modules["siegelvec.cli"]
    code = 1
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"wrapped": wrapped, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
