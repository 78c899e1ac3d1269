"""Standalone supervised sweep CLI: ``python -m repro sweep``.

Runs a grid of table cells (kind x adversary x n) through the block-level
shard supervisor (:mod:`repro.experiments.shard_supervisor`) -- the
sweep-scheduler counterpart of ``run_all``: crash-safe, resumable, and
chaos-testable without involving the experiment registry.  This is the
vehicle for the CI shard-chaos smoke: inject worker kills and hangs with
``--inject-faults``, assert the partial-results exit code and quarantine
table, then ``--resume`` to finish bit-identically.

Options::

    --kind lesk[,lesu,...]     cell kinds (repro.experiments.cells.CELL_KINDS)
    --n 64,128                 station counts
    --adversary random[,...]   jamming strategies
    --eps F --T N              adversary parameters (scalars)
    --reps N                   replications per cell
    --seed N                   root seed (default 1234)
    --path-tag N               leading seed-path component (default 99;
                               keeps sweep seeds disjoint from the
                               numbered experiments)
    --jobs N                   supervised shard workers (default 1: inline)
    --block-size N             repetitions per block (default 64)
    --block-timeout S          wall-clock budget per block
    --retries N --backoff S    bounded retry with seeded backoff
    --no-speculate             disable straggler re-execution
    --keep-going               quarantine poison blocks and keep partial
                               results (exit 2) instead of aborting
    --inject-faults SPEC       block<N>:kill/hang/corrupt-result@E atoms
                               (repro.experiments.faults)
    --out DIR                  write sweep.txt/sweep.csv/failures.txt and
                               block checkpoints under DIR/shards/
    --resume                   reuse --out DIR: restore completed blocks,
                               recompute only what is missing

Exit status: 0 -- every cell complete; 2 -- partial results (quarantined
blocks itemized in failures.txt); 1 -- nothing usable or bad
configuration; 130 -- interrupted (in-flight blocks drained and
checkpointed; rerun with ``--resume``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ConfigurationError, ReproError
from repro.experiments.cells import CellSpec, run_cells_sharded_report
from repro.experiments.checkpoint import (
    MANIFEST_FORMAT,
    SHARD_SUBDIR,
    atomic_write_text,
    cli_invocation,
)
from repro.experiments.faults import FaultPlan
from repro.experiments.harness import Column, Table, summarize_times
from repro.experiments.retry import RetryPolicy

__all__ = ["main", "build_specs", "sweep_scenario", "sweep_table"]

SWEEP_MANIFEST = "sweep-manifest.json"

#: Manifest keys that must match for --resume (they determine the seeds).
_STRICT_KEYS = (
    "format",
    "kinds",
    "n",
    "adversaries",
    "eps",
    "T",
    "reps",
    "seed",
    "path_tag",
    "block_size",
)


def _csv_list(raw: str, convert=str) -> list:
    values = [convert(v.strip()) for v in raw.split(",") if v.strip()]
    if not values:
        raise ConfigurationError(f"empty list argument: {raw!r}")
    return values


def sweep_scenario(
    kinds: list[str],
    ns: list[int],
    adversaries: list[str],
    eps: float,
    T: int,
    reps: int,
    seed: int,
    path_tag: int,
    block_size: int = 64,
):
    """Compile sweep CLI arguments into a validated scenario document.

    The sweep CLI and ``repro scenario run`` share one grid compiler
    (:mod:`repro.service.scenario`), so both validate identically and
    expand to identical :class:`CellSpec` lists -- the sweep grid is just
    a scenario whose eps/T axes are scalars.
    """
    from repro.service.scenario import (
        SCENARIO_SCHEMA_VERSION,
        scenario_from_jsonable,
    )

    doc = {
        "scenario": "sweep",
        "schema": SCENARIO_SCHEMA_VERSION,
        "seed": seed,
        "path_tag": path_tag,
        "grid": {
            "kind": list(kinds),
            "n": list(ns),
            "eps": [eps],
            "T": [T],
            "adversary": list(adversaries),
        },
        "reps": reps,
        "sharding": {"block_size": block_size},
    }
    return scenario_from_jsonable(doc, source="<repro sweep>")


def build_specs(
    kinds: list[str],
    ns: list[int],
    adversaries: list[str],
    eps: float,
    T: int,
    reps: int,
    seed: int,
    path_tag: int,
) -> list[CellSpec]:
    """The sweep grid in deterministic order (kind-major, then adversary, n).

    Each spec's seed path is ``(path_tag, i)`` with *i* its grid ordinal,
    so the grid layout -- not the job count or visit order -- fixes every
    cell's seeds.  Compiled through the scenario layer
    (:func:`sweep_scenario`), which validates the grid and preserves this
    expansion order exactly.
    """
    from repro.service.scenario import expand

    return expand(
        sweep_scenario(kinds, ns, adversaries, eps, T, reps, seed, path_tag)
    )


def sweep_table(specs: list[CellSpec], results: list[list]) -> Table:
    """One summary row per cell (partial cells report the reps they have)."""
    table = Table(
        name="SWEEP",
        title="supervised sharded sweep",
        claim=(
            "per-cell seeds derive from (seed, path_tag, cell, "
            "SHARD_BLOCK_TAG, block): identical results for any job count "
            "or failure schedule"
        ),
        columns=[
            Column("kind", "kind"),
            Column("n", "n"),
            Column("adversary", "adversary"),
            Column("reps", "reps"),
            Column("success", "success", ".3f"),
            Column("median_slots", "median slots", ".1f"),
            Column("p90_slots", "p90 slots", ".1f"),
        ],
    )
    for spec, cell_results in zip(specs, results):
        runs = [
            r
            for r in cell_results
            if hasattr(r, "slots") and hasattr(r, "elected")
        ]
        if not runs:
            # Quarantined-empty cell, or a payload kind (e.g. estimation
            # tuples) that summarize_times cannot time.
            table.add_row(
                kind=spec.kind,
                n=spec.n,
                adversary=spec.adversary,
                reps=len(cell_results),
                success=float("nan"),
                median_slots=float("nan"),
                p90_slots=float("nan"),
            )
            continue
        stats = summarize_times(runs)
        table.add_row(
            kind=spec.kind,
            n=spec.n,
            adversary=spec.adversary,
            reps=stats["reps"],
            success=stats["success_rate"],
            median_slots=stats["median_slots"],
            p90_slots=stats["p90_slots"],
        )
    return table


def _manifest(args, kinds, ns, adversaries) -> dict:
    return {
        "format": MANIFEST_FORMAT,
        "kinds": kinds,
        "n": ns,
        "adversaries": adversaries,
        "eps": args.eps,
        "T": args.T,
        "reps": args.reps,
        "seed": args.seed,
        "path_tag": args.path_tag,
        "block_size": args.block_size,
    }


def _check_resume_manifest(out: Path, expected: dict) -> None:
    path = out / SWEEP_MANIFEST
    try:
        stored = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigurationError(
            f"{out} has no {SWEEP_MANIFEST}; it was not created by a "
            "checkpointed sweep, so --resume cannot verify it matches this "
            "invocation"
        ) from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"unreadable {path}: {exc}") from exc
    mismatches = [
        f"  {key}: run dir has {stored.get(key)!r}, this invocation has "
        f"{expected.get(key)!r}"
        for key in _STRICT_KEYS
        if stored.get(key) != expected.get(key)
    ]
    if mismatches:
        raise ConfigurationError(
            "refusing to resume: the sweep directory was created with "
            "different parameters --\n" + "\n".join(mismatches)
        )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; see the module docstring for options."""
    parser = argparse.ArgumentParser(prog="repro sweep", description=__doc__)
    parser.add_argument("--kind", type=str, default="lesk")
    parser.add_argument("--n", type=str, default="64")
    parser.add_argument("--adversary", type=str, default="random")
    parser.add_argument("--eps", type=float, default=0.3)
    parser.add_argument("--T", type=int, default=16)
    parser.add_argument("--reps", type=int, default=64)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--path-tag", type=int, default=99)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--block-size", type=int, default=64)
    parser.add_argument("--block-timeout", type=float, default=None)
    parser.add_argument("--retries", type=int, default=3)
    parser.add_argument("--backoff", type=float, default=0.5)
    parser.add_argument(
        "--speculate",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="duplicate straggler blocks onto idle workers (default on)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="quarantine poison blocks and keep partial results (exit 2)",
    )
    parser.add_argument("--inject-faults", type=str, default=None, metavar="SPEC")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--resume",
        action="store_true",
        help="restore completed blocks from --out DIR/shards",
    )
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.block_size < 1:
        parser.error("--block-size must be >= 1")
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    if args.retries < 1:
        parser.error("--retries must be >= 1")
    if args.resume and args.out is None:
        parser.error("--resume requires --out DIR")

    try:
        from repro.service.scenario import expand, scenario_digest

        kinds = _csv_list(args.kind)
        ns = _csv_list(args.n, int)
        adversaries = _csv_list(args.adversary)
        fault_plan = (
            FaultPlan.from_spec(args.inject_faults) if args.inject_faults else None
        )
        # One grid compiler for sweep and `repro scenario run`: the CLI
        # arguments become a scenario document, validated and expanded by
        # the service layer (identical CellSpecs, identical seed paths).
        scenario = sweep_scenario(
            kinds, ns, adversaries, args.eps, args.T, args.reps,
            args.seed, args.path_tag, args.block_size,
        )
        specs = expand(scenario)

        checkpoint_dir = None
        manifest = _manifest(args, kinds, ns, adversaries)
        manifest["scenario_digest"] = scenario_digest(scenario)
        manifest["invocation"] = cli_invocation("sweep", argv)
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            if args.resume:
                _check_resume_manifest(args.out, manifest)
            else:
                # Fresh sweep into a reused directory: drop stale blocks.
                shards = args.out / SHARD_SUBDIR
                if shards.is_dir():
                    for stale in shards.glob("block-*.json"):
                        stale.unlink(missing_ok=True)
            atomic_write_text(
                args.out / SWEEP_MANIFEST,
                json.dumps(manifest, indent=2, sort_keys=True),
            )
            checkpoint_dir = args.out / SHARD_SUBDIR

        results, _shards, report = run_cells_sharded_report(
            specs,
            jobs=args.jobs,
            block_size=args.block_size,
            block_timeout=args.block_timeout,
            retry=RetryPolicy(
                max_attempts=args.retries,
                backoff_base=args.backoff,
                seed=args.seed,
            ),
            keep_going=args.keep_going,
            speculate=args.speculate,
            checkpoint_dir=checkpoint_dir,
            fault_plan=fault_plan,
        )
    except KeyboardInterrupt as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130
    except ReproError as exc:
        detail = getattr(exc, "report", None)
        if detail is not None:
            print(detail.quarantine_table().render(), file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1

    table = sweep_table(specs, results)
    print(table.render())
    print(f"[sweep {report.summary()}]", flush=True)

    if args.out is not None:
        atomic_write_text(args.out / "sweep.txt", table.render() + "\n")
        atomic_write_text(args.out / "sweep.csv", table.to_csv())
        failures_path = args.out / "failures.txt"
        if report.quarantined:
            atomic_write_text(
                failures_path, report.quarantine_table().render() + "\n"
            )
        else:
            failures_path.unlink(missing_ok=True)

    if report.quarantined:
        print(report.quarantine_table().render(), flush=True)
        complete = sum(1 for r in results if r)
        return 2 if complete else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
