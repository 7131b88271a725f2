"""``repro run`` — one mechanism on one dataset, JSON result out.

The single-run front door: loads a registry dataset, builds the
:class:`~repro.core.config.MechanismConfig` exactly like the sweep runner's
:func:`~repro.experiments.runner.make_config` (so a CLI run is bit-identical
to the equivalent API call for a fixed ``--rng``), executes the mechanism,
and emits one JSON document with the run summary, the utility metrics and
the resolved configuration.
"""

from __future__ import annotations

import argparse

from repro.cli.common import (
    CLIError,
    add_dataset_arguments,
    add_smoke_argument,
    emit_json,
    resolve_scale,
)

#: The names of ``repro.experiments.runner.MECHANISM_REGISTRY``, spelled
#: out so that building the parser imports no mechanism (a test keeps the
#: two equal).
MECHANISMS: tuple[str, ...] = ("fedpem", "gtf", "tap", "taps")


def add_parser(subparsers) -> argparse.ArgumentParser:
    parser = subparsers.add_parser(
        "run",
        help="run one mechanism on one dataset, printing a JSON result",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "mechanism", choices=MECHANISMS,
        help="mechanism to run",
    )
    add_dataset_arguments(parser)
    parser.add_argument("-k", "--top-k", type=int, default=None,
                        help="number of heavy hitters queried (default: 10; "
                             "--smoke: the canonical smoke preset's k)")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="per-user privacy budget ε (default: 4.0; "
                             "--smoke: the canonical smoke preset's ε)")
    parser.add_argument("--oracle", default="krr",
                        help="frequency oracle: krr/oue/olh (default: krr)")
    parser.add_argument("--granularity", type=int, default=6,
                        help="trie levels / user groups g (default: 6)")
    parser.add_argument("--n-bits", type=int, default=None,
                        help="binary item width m (default: the dataset's own width)")
    parser.add_argument("--rng", type=int, default=0,
                        help="run seed for the mechanism execution (default: 0)")
    parser.add_argument(
        "--execution-mode", choices=("memory", "service"), default="memory",
        help="in-memory batch run, or streamed through the aggregation service",
    )
    parser.add_argument("--batch-size", type=int, default=None,
                        help="report batch bound (service mode; default: 65536)")
    add_smoke_argument(parser)
    parser.add_argument("-o", "--output", default=None,
                        help="write the JSON result here instead of stdout")
    parser.set_defaults(handler=cmd)
    return parser


def cmd(args: argparse.Namespace) -> int:
    from repro.datasets.registry import load_dataset
    from repro.experiments.runner import (
        SMOKE_PRESET,
        ExperimentSettings,
        build_mechanism,
        evaluate_run,
        make_config,
    )
    from repro.experiments.serialization import summarize_result

    # --smoke is the one canonical preset (scale *and* grid point); explicit
    # --scale/-k/--epsilon still win so operators can smoke-test a specific cell.
    scale = resolve_scale(args)
    if args.top_k is None:
        args.top_k = SMOKE_PRESET["ks"][0] if args.smoke else 10
    if args.epsilon is None:
        args.epsilon = SMOKE_PRESET["epsilons"][0] if args.smoke else 4.0
    settings = ExperimentSettings(
        scale=scale,
        repetitions=1,
        granularity=args.granularity,
        n_bits=args.n_bits,
        oracle=args.oracle,
        seed=args.seed,
        execution_mode=args.execution_mode,
        report_batch_size=args.batch_size,
    )
    try:
        dataset = load_dataset(args.dataset, scale=scale, seed=args.seed)
    except KeyError as exc:
        raise CLIError(str(exc.args[0]) if exc.args else str(exc)) from exc
    config = make_config(settings, dataset, k=args.top_k, epsilon=args.epsilon)
    mechanism = build_mechanism(args.mechanism, config)
    result = mechanism.run(dataset, rng=args.rng)
    payload = {
        "mechanism": args.mechanism,
        "dataset": args.dataset,
        "scale": scale,
        "rng": args.rng,
        "config": config.to_dict(),
        "metrics": evaluate_run(result, dataset, args.top_k),
        "summary": summarize_result(result),
    }
    emit_json(payload, args.output)
    return 0
