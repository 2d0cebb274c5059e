"""Command-line interface.

Subcommands: ``run`` (a one-point sweep that prints each record), ``sweep``
(spec file), ``priors`` (build/cache priors) and ``hist`` (multiplicity
histogram).  ``--seed`` is the run seed of ``run``, the spec's
``master_seed``, and the histogram seed of ``hist``; the prior does not
depend on it.  Exit code 0 on success, 2 on configuration errors and 3 on
I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import harness
from .config import ConfigError, SystemConfig, load_config, preset


def _base_config(args) -> SystemConfig:
    if args.config:
        return load_config(args.config)
    return preset(args.preset)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (unknown keys rejected)")
    p.add_argument("--preset", default="desk", choices=["desk", "paper"])


def cmd_run(args) -> int:
    cfg = _base_config(args)
    spec = harness.ExperimentSpec(
        base=cfg, decoders=(args.decoder,), runs=args.runs, master_seed=args.seed,
        out_dir=args.out, prior_cache=args.cache,
    )
    harness.run_sweep(spec, progress=lambda rec: print(json.dumps(rec)))
    return 0


def cmd_sweep(args) -> int:
    spec = harness.spec_from_json(args.spec)
    if args.out:
        spec = dataclasses.replace(spec, out_dir=args.out)
    res = harness.run_sweep(
        spec, progress=_progress if args.verbose else None, workers=args.workers
    )
    print(f"wrote {res['jsonl']} and {res['csv']}")
    return 0


def _progress(rec: dict) -> None:
    print(
        f"point={rec['point']} decoder={rec['decoder']} run={rec['run']} "
        f"status={rec['status']} tv={rec['tv']}",
        file=sys.stderr,
    )


def cmd_priors(args) -> int:
    cfg = _base_config(args)
    ctx = harness.prepare_context(cfg, cache_dir=args.cache or "prior_cache")
    print(
        json.dumps(
            {
                "p_active": ctx.prior.p_active,
                "K_max": ctx.prior.K_max,
                "zones": ctx.prior.msg_probs.shape[0],
                "messages": ctx.prior.msg_probs.shape[1],
            },
            indent=2,
        )
    )
    return 0


def cmd_hist(args) -> int:
    cfg = _base_config(args)
    res = harness.multiplicity_histogram(cfg, args.runs, args.seed)
    doc = {
        "hist": res["hist"].tolist(),
        "collision_fraction": res["collision_fraction"],
        "pooled_codewords": res["pooled_codewords"],
    }
    out = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    print(out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tumaloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="end-to-end runs at a single configuration")
    _add_config_flags(p_run)
    p_run.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    p_run.add_argument("--decoder", default="centralized", choices=harness.DECODERS)
    p_run.add_argument("--runs", type=int, default=1)
    p_run.add_argument("--out", default="results", help="output directory (default results)")
    p_run.add_argument("--cache", help="prior cache directory")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a sweep described by a JSON spec file")
    p_sweep.add_argument("--spec", required=True)
    p_sweep.add_argument("--out", help="override the spec's output directory")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--verbose", action="store_true")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_priors = sub.add_parser("priors", help="build and cache the multiplicity prior")
    _add_config_flags(p_priors)
    p_priors.add_argument("--cache", help="prior cache directory (default prior_cache)")
    p_priors.set_defaults(fn=cmd_priors)

    p_hist = sub.add_parser("hist", help="empirical nonzero-multiplicity histogram")
    _add_config_flags(p_hist)
    p_hist.add_argument("--seed", type=int, default=0, help="histogram seed (default 0)")
    p_hist.add_argument("--runs", type=int, default=100)
    p_hist.add_argument("--out")
    p_hist.set_defaults(fn=cmd_hist)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
