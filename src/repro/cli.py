"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``generate``  write one of the synthetic datasets (plus its schema JSON)
              to CSV so the other commands — or external tools — can use it;
``identify``  print the Implicit Biased Set of a CSV (Algorithm 1);
``remedy``    write a remedied copy of a CSV (Algorithm 2);
``audit``     train a downstream model on a train CSV, audit subgroup
              fairness on a test CSV, print unfair subgroups and indexes;
``experiment``run one of the paper's experiments by id (fig3, fig4, fig5,
              fig6, fig7, fig8, table3, fig9, robustness) on the synthetic
              data, fault-tolerantly: ``--max-retries`` / ``--cell-timeout``
              bound each sweep cell, ``--checkpoint`` persists completed
              cells, ``--resume`` restarts an interrupted sweep without
              re-running them, and ``--backend process --workers N`` runs
              the sweep cells in crash-isolated worker processes (see
              ``docs/resilience.md``);
``checkpoint``inspect or prune sweep checkpoints: ``checkpoint inspect``
              prints run id, cell counts, and age; ``checkpoint prune``
              deletes all but the newest checkpoints;
``stream``    continuously audit a *changing* dataset: ``stream init``
              creates a durable delta journal, ``stream ingest`` journals
              and incrementally applies micro-batches of row edits,
              ``stream status`` / ``stream replay`` / ``stream alarms``
              recover and inspect the audited state, and ``stream
              compact`` folds the journal into a fresh generation (see
              ``docs/streaming.md``);
``data``      manage the on-disk sharded dataset registry: ``data
              materialize`` writes a named store (from a synthetic
              generator, shard by shard, or from a CSV), ``data list``
              enumerates entries, ``data verify`` re-hashes every shard
              file against its manifest, and ``data prune`` deletes
              entries not leased by a live process and sweeps orphaned
              ``.tmp-*`` directories (see ``docs/datasets.md``);
``serve``     run the fault-tolerant audit gateway: an HTTP front over a
              stream directory (multi-producer ingest with admission
              control, deadlines, and idempotent acks) and, optionally, a
              dataset registry (verified shard fetch) with remedy-on-drift
              behind a circuit breaker (see ``docs/serving.md``);
``client``    talk to a running gateway with typed, deterministic retries:
              ``client ingest`` submits a batches file idempotently,
              ``client fetch`` installs a dataset store with client-side
              sha256 verification, ``client health`` prints the health
              document;
``analyze``   run the repo's static-analysis rules (per-file R001–R008 and
              R015–R016 plus whole-program R009–R014) over Python sources,
              gated by an optional baseline file and sped up by an
              incremental cache;
``trace``     inspect observability artefacts: ``trace summarize`` renders
              the span tree, top-k table, and metric totals of a JSONL
              trace written with ``--trace`` (see ``docs/observability.md``).

Every command that reads a CSV requires the matching ``--schema`` JSON
(written by ``generate`` or by :func:`repro.data.schema_io.write_schema`).

Observability: the pipeline commands accept ``--trace out.jsonl``.  The run
then executes under an ambient :class:`repro.obs.Tracer`; on exit the span
tree, counters, and events are serialised to the given JSONL path and a run
manifest (config hash, seed, versions, metric totals) is embedded as the
final record and written as an ``out.jsonl.manifest.json`` sidecar.
Tracing is semantically inert — outputs are byte-identical with and without
``--trace``.  ``experiment --checkpoint c.json`` additionally writes a
``c.json.manifest.json`` sidecar next to the sweep artefact.

Exit codes: 0 on success; 2 for any :class:`~repro.errors.ReproError`
(bad input, malformed schema, checkpoint mismatch, ...); 3 when an
experiment completed but one or more cells failed after their retry
budget (the printed table carries ``FAILED(...)``/``TIMEOUT`` markers);
130 on ``KeyboardInterrupt`` (completed cells are already checkpointed).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import Sequence

from repro.audit import fairness_index, unfair_subgroups
from repro.core import METHOD_OPTIMIZED, METHODS, identify_ibs, remedy_dataset
from repro.core.samplers import TECHNIQUES
from repro.data.dataset import Dataset
from repro.data.io import atomic_write_text, read_csv, write_csv
from repro.data.schema_io import read_schema, write_schema
from repro.data.split import train_test_split
from repro.data.synth import load_adult, load_compas, load_lawschool
from repro.errors import ExperimentError, ReproError
from repro.experiments.reporting import format_table
from repro.ml.metrics import FNR, FPR
from repro.ml.models import MODEL_NAMES, make_model
from repro.obs import (
    Tracer,
    build_manifest,
    manifest_path_for,
    tracing,
    write_manifest,
)

DATASETS = {
    "adult": load_adult,
    "compas": load_compas,
    "lawschool": load_lawschool,
}

#: CLI exit-code contract (see module docstring and ``docs/resilience.md``).
EXIT_OK = 0
EXIT_REPRO_ERROR = 2
EXIT_PARTIAL = 3
EXIT_INTERRUPT = 130


def _load(csv_path: str, schema_path: str) -> Dataset:
    schema, protected = read_schema(schema_path)
    return read_csv(csv_path, schema, protected=protected)


def _manifest_params(args: argparse.Namespace) -> dict:
    """The run's full parameter set, minus plumbing, for the manifest."""
    return {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "trace") and not callable(v)
    }


def _finish_trace(args: argparse.Namespace, tracer: Tracer) -> None:
    """Write the JSONL trace plus its manifest sidecar when ``--trace`` is set."""
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return
    manifest = build_manifest(
        command=args.command,
        params=_manifest_params(args),
        seed=getattr(args, "seed", None),
        tracer=tracer,
    )
    tracer.write(trace_path, manifest=manifest.to_dict())
    write_manifest(manifest, manifest_path_for(trace_path))


# -- subcommand implementations --------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    loader = DATASETS[args.dataset]
    kwargs = {"seed": args.seed}
    if args.rows is not None:
        kwargs["n_rows"] = args.rows
    dataset = loader(**kwargs)
    out = Path(args.output)
    write_csv(dataset, out)
    schema_path = out.with_suffix(".schema.json")
    write_schema(dataset, schema_path)
    print(f"wrote {dataset.n_rows} rows to {out} (schema: {schema_path})")
    return 0


def cmd_identify(args: argparse.Namespace) -> int:
    dataset = _load(args.csv, args.schema)
    reports = identify_ibs(
        dataset,
        args.tau_c,
        T=args.T,
        k=args.k,
        scope=args.scope,
        method=args.method,
    )
    rows = [
        (
            r.pattern.describe(dataset.schema),
            r.size,
            r.ratio,
            r.neighbor_ratio,
            r.difference,
        )
        for r in reports
    ]
    print(
        format_table(
            ("region", "size", "ratio_r", "ratio_rn", "difference"),
            rows,
            precision=3,
            title=f"Implicit Biased Set (tau_c={args.tau_c}, T={args.T}, k={args.k})",
        )
    )
    print(f"\n{len(reports)} biased regions")
    return 0


def cmd_remedy(args: argparse.Namespace) -> int:
    dataset = _load(args.csv, args.schema)
    result = remedy_dataset(
        dataset,
        args.tau_c,
        T=args.T,
        k=args.k,
        technique=args.technique,
        scope=args.scope,
        method=args.method,
        seed=args.seed,
    )
    write_csv(result.dataset, args.output)
    if args.audit_log:
        from repro.core.serialize import write_audit_trail

        write_audit_trail(result, args.audit_log)
        print(f"audit trail written to {args.audit_log}")
    print(
        f"remedied {result.n_regions_remedied} regions "
        f"({result.rows_touched} rows touched); "
        f"{dataset.n_rows} -> {result.dataset.n_rows} rows written to {args.output}"
    )
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    train = _load(args.train, args.schema)
    if args.test:
        test = _load(args.test, args.schema)
    else:
        train, test = train_test_split(train, args.test_fraction, seed=args.seed)
    model = make_model(args.model, seed=args.seed).fit(train)
    pred = model.predict(test)
    acc = float((pred == test.y).mean())
    print(f"model={args.model}  accuracy={acc:.4f}")
    for gamma in (FPR, FNR):
        fi = fairness_index(test, pred, gamma)
        print(f"fairness index ({gamma.upper()}): {fi:.4f}")
    unfair = unfair_subgroups(
        test, pred, gamma=args.gamma, tau_d=args.tau_d, min_size=args.k
    )
    rows = [
        (
            s.pattern.describe(test.schema),
            s.size,
            s.gamma_group,
            s.gamma_dataset,
            s.divergence,
            s.p_value,
        )
        for s in unfair
    ]
    print()
    print(
        format_table(
            ("subgroup", "size", f"{args.gamma}_g", f"{args.gamma}_D", "divergence", "p"),
            rows,
            precision=3,
            title=f"Unfair subgroups (gamma={args.gamma}, tau_d={args.tau_d})",
        )
    )
    return 0


def parse_subgroup(spec: str, schema) -> "Pattern":
    """Parse 'attr=label,attr=label' into a Pattern using schema domains."""
    from repro.core import Pattern

    assignment = {}
    for part in spec.split(","):
        if "=" not in part:
            raise SystemExit(f"bad subgroup element {part!r}; use attr=value")
        attr, label = part.split("=", 1)
        assignment[attr.strip()] = label.strip()
    return Pattern.from_labels(schema, assignment)


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.core import explain_subgroup

    dataset = _load(args.csv, args.schema)
    subgroup = parse_subgroup(args.subgroup, dataset.schema)
    explanation = explain_subgroup(
        dataset, subgroup, tau_c=args.tau_c, T=args.T, k=args.k
    )
    print(explanation.describe(dataset.schema))
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    from repro.core import plan_remedies, plan_table

    dataset = _load(args.csv, args.schema)
    plans = plan_remedies(dataset, tau_grid=args.tau_grid, k=args.k)
    print(plan_table(plans))
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    from repro.data.summary import summarize_dataset, summary_table

    dataset = _load(args.csv, args.schema)
    print(summary_table(summarize_dataset(dataset, max_regions=args.regions)))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import ReportScale, generate_report

    scale = ReportScale(
        adult_rows=args.adult_rows,
        compas_rows=args.compas_rows,
        lawschool_rows=args.lawschool_rows,
        models=tuple(args.models),
        seed=args.seed,
    )
    report = generate_report(scale)
    atomic_write_text(args.output, report.to_markdown())
    total = sum(s.seconds for s in report.sections)
    print(f"wrote {args.output} ({len(report.sections)} sections, {total:.1f}s)")
    return 0


def _build_executor(args: argparse.Namespace) -> "CellExecutor":
    """Assemble the fault-tolerant executor from the ``experiment`` flags."""
    from repro.resilience import CellExecutor, Checkpoint, RetryPolicy, sweep_run_id

    if args.max_retries < 0:
        raise ExperimentError(f"--max-retries must be >= 0, got {args.max_retries}")
    if args.workers < 1:
        raise ExperimentError(f"--workers must be >= 1, got {args.workers}")
    checkpoint = None
    if args.resume and not args.checkpoint:
        raise ExperimentError("--resume requires --checkpoint <path>")
    if args.checkpoint:
        path = Path(args.checkpoint)
        if path.exists() and not args.resume:
            raise ExperimentError(
                f"checkpoint {path} already exists; pass --resume to continue "
                "that sweep or delete the file to start over"
            )
        run_id = sweep_run_id(
            experiment=args.experiment,
            rows=args.rows,
            models=list(args.models),
            seed=args.seed,
        )
        checkpoint = Checkpoint(path, run_id, resume=args.resume)
    policy = RetryPolicy(max_attempts=args.max_retries + 1, seed=args.seed)
    return CellExecutor(
        policy=policy,
        deadline=args.cell_timeout,
        checkpoint=checkpoint,
        backend=args.backend,
        max_workers=args.workers,
    )


def cmd_experiment(args: argparse.Namespace) -> int:
    executor = _build_executor(args)
    try:
        return _dispatch_experiment(args, executor)
    finally:
        # Releases the warm worker pool and its shared-memory datasets —
        # also on SIGINT/SIGTERM, whose drain path raises KeyboardInterrupt
        # through here after in-flight cells have finished reading.
        executor.close()


def _dispatch_experiment(args: argparse.Namespace, executor: "CellExecutor") -> int:
    # Imported lazily: the experiment modules pull in every subsystem.
    from repro.experiments import (
        identification_vs_attrs,
        run_baseline_comparison,
        run_seed_sweep,
        run_tradeoff,
        run_validation,
        speedup_summary,
        sweep_T,
        sweep_tau_c,
        validation_summary,
        validation_table,
    )

    rows = args.rows
    if args.experiment == "fig3":
        data = load_compas(rows or 6172, seed=11)
        results = run_validation(
            data, models=tuple(args.models), seed=args.seed, executor=executor
        )
        print(validation_table(results, schema=data.schema))
        print()
        print(validation_summary(results))
    elif args.experiment in ("fig4", "fig5", "fig6"):
        name, loader, tau = {
            "fig4": ("Adult", load_adult, 0.5),
            "fig5": ("Law School", load_lawschool, 0.1),
            "fig6": ("ProPublica", load_compas, 0.1),
        }[args.experiment]
        default_rows = {"fig4": 12000, "fig5": 4590, "fig6": 6172}[args.experiment]
        data = loader(rows or default_rows)
        result = run_tradeoff(
            data, name, tau_c=tau, models=tuple(args.models), seed=args.seed,
            executor=executor,
        )
        print(result.table())
    elif args.experiment == "fig7":
        data = load_compas(rows or 6172, seed=11)
        sweep = sweep_tau_c(
            data, "ProPublica", model=args.models[0], seed=args.seed,
            executor=executor,
        )
        print(sweep.table("Fig. 7 — varying tau_c"))
    elif args.experiment == "fig8":
        data = load_compas(rows or 6172, seed=11)
        sweep = sweep_T(
            data, "ProPublica", tau_c=0.1, model=args.models[0], seed=args.seed,
            executor=executor,
        )
        print(sweep.table("Fig. 8 — T = 1 vs T = |X|"))
    elif args.experiment == "table3":
        data = load_adult(rows or 12000, seed=5)
        print(run_baseline_comparison(data, seed=args.seed, executor=executor).table())
    elif args.experiment == "fig9":
        result = identification_vs_attrs(
            n_rows=rows or 10000, attr_grid=(2, 4, 6, 8), executor=executor
        )
        print(result.table("#attrs"))
        print(f"speedups: {speedup_summary(result)}")
    elif args.experiment == "robustness":
        data = load_compas(rows or 6172, seed=11)
        result = run_seed_sweep(
            data, "ProPublica", model=args.models[0], executor=executor
        )
        print(result.table())
    else:  # pragma: no cover - argparse choices prevent this
        raise SystemExit(f"unknown experiment {args.experiment}")
    if args.checkpoint:
        # Attach provenance to the sweep artefact: config hash, seed,
        # versions, and the run's metric totals from the ambient tracer.
        from repro.obs import current_tracer

        manifest = build_manifest(
            command=f"experiment:{args.experiment}",
            params=_manifest_params(args),
            seed=args.seed,
            tracer=current_tracer(),
        )
        write_manifest(manifest, manifest_path_for(args.checkpoint))
    if executor.n_failed:
        print(
            f"\n{executor.n_failed} cell(s) failed after retries — "
            "see the status above",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_checkpoint_inspect(args: argparse.Namespace) -> int:
    from repro.resilience import inspect_checkpoint

    info = inspect_checkpoint(args.path)
    print(f"checkpoint: {info['path']}")
    print(f"run id:     {info['run_id']}")
    print(f"cells:      {info['n_cells']} ({info['n_done']} ok, "
          f"{info['n_failed']} failed)")
    if info["failed"]:
        print(f"failed:     {', '.join(info['failed'])}")
    print(f"age:        {info['age_seconds']:.0f}s")
    return 0


def cmd_checkpoint_prune(args: argparse.Namespace) -> int:
    from repro.resilience import prune_checkpoints

    deleted = prune_checkpoints(args.paths, keep_latest=args.keep_latest)
    for path in deleted:
        print(f"deleted {path}")
    print(f"pruned {len(deleted)} checkpoint(s), kept the "
          f"{args.keep_latest} newest")
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.obs import read_trace, summarize

    print(summarize(read_trace(args.trace_file), top=args.top))
    return 0


def cmd_stream_init(args: argparse.Namespace) -> int:
    from repro.stream.journal import DeltaLog, StreamConfig

    schema, protected = read_schema(args.schema)
    config = StreamConfig(
        schema=schema,
        protected=protected,
        tau_c=args.tau_c,
        T=args.T,
        k=args.k,
        hysteresis=args.hysteresis,
        queue_limit=args.queue_limit,
        retry_budget=args.retry_budget,
        segment_bytes=args.segment_bytes,
        compact_bytes=args.compact_bytes,
    )
    log = DeltaLog.create(args.directory, config)
    log.close()
    print(
        f"initialised stream at {args.directory} "
        f"(tau_c={config.tau_c}, T={config.T}, k={config.k}, "
        f"hysteresis={config.hysteresis})"
    )
    return 0


def cmd_stream_ingest(args: argparse.Namespace) -> int:
    from repro.stream.service import StreamService, read_batches_file

    batches = read_batches_file(args.batches)
    service, _report = StreamService.open(args.directory, allow_empty=True)
    try:
        before = service.auditor.n_batches
        dead_before = len(service.log.dead_letters())
        service.ingest(batches)
        service.retry_dead_letters()
        if args.compact:
            service.compact()
        else:
            service.maybe_compact()
        applied = service.auditor.n_batches - before
        quarantined = len(service.log.dead_letters()) - dead_before
        print(
            f"applied {applied} of {len(batches)} batches "
            f"({len(batches) - applied} duplicate), "
            f"{quarantined} dead-letter entries"
        )
        print(f"watermark {service.auditor.watermark}, "
              f"{service.auditor.state.n_alive} rows alive")
        print(f"digest {service.auditor.digest()}")
    finally:
        service.close()
    return 0


def cmd_stream_status(args: argparse.Namespace) -> int:
    from repro.serve.protocol import canonical_json_bytes
    from repro.stream.service import StreamService

    service, report = StreamService.open(args.directory, allow_empty=False)
    try:
        status = service.status()
        if args.json:
            # Machine form: exactly the gateway health endpoint's "stream"
            # document, canonical encoding, no recovery prose.
            sys.stdout.buffer.write(canonical_json_bytes(status))
            return 0
        print(f"recovery: {report.describe()}")
        rows = [
            (key, status[key])
            for key in (
                "watermark", "n_batches", "next_row", "n_alive",
                "n_positive", "n_biased", "active_alarms",
                "generation_bytes",
            )
        ]
        print(format_table(("field", "value"), rows, title="stream status"))
        print(f"segments: {', '.join(status['segments'])}")
        print(f"digest {status['digest']}")
    finally:
        service.close()
    return 0


def _print_stream_state(auditor) -> None:
    """Replay output: the byte-compare target of the chaos drills.

    Everything here is a pure function of the journal's committed batches
    — no wall-clock, no recovery details — so two replays of equivalent
    journals print identical bytes.
    """
    schema = auditor.config.schema
    print(f"watermark {auditor.watermark}, {auditor.n_batches} batches")
    print(
        f"{auditor.state.n_alive} rows alive "
        f"({auditor.state.n_alive_positive} positive), "
        f"next row id {auditor.state.next_row_id}"
    )
    reports = auditor.reports()
    rows = [
        (
            r.pattern.describe(schema),
            r.size,
            r.ratio,
            r.neighbor_ratio,
            r.difference,
        )
        for r in reports
    ]
    print(
        format_table(
            ("region", "size", "ratio_r", "ratio_rn", "difference"),
            rows,
            precision=3,
            title=f"streamed Implicit Biased Set ({len(reports)} regions)",
        )
    )
    _print_active_alarms(auditor)
    print(f"digest {auditor.digest()}")


def _print_active_alarms(auditor) -> None:
    """The active drift alarm table of `stream replay` and `stream alarms`."""
    schema = auditor.config.schema
    alarms = [
        (pattern.describe(schema), diff)
        for pattern, diff in auditor.monitor.active()
    ]
    print(
        format_table(
            ("alarmed region", "difference"),
            alarms,
            precision=3,
            title=f"active drift alarms ({len(alarms)})",
        )
    )


def cmd_stream_replay(args: argparse.Namespace) -> int:
    from repro.stream.engine import StreamAuditor
    from repro.stream.journal import DeltaLog

    log, _report = DeltaLog.recover(args.directory, allow_empty=False)
    try:
        auditor = StreamAuditor.from_journal(log, upto_seq=args.to_seq)
    finally:
        log.close()
    _print_stream_state(auditor)
    return 0


def cmd_stream_alarms(args: argparse.Namespace) -> int:
    from repro.stream.engine import StreamAuditor
    from repro.stream.journal import DeltaLog

    log, _report = DeltaLog.recover(args.directory, allow_empty=False)
    try:
        auditor = StreamAuditor.from_journal(log)
    finally:
        log.close()
    _print_active_alarms(auditor)
    if args.events:
        schema = auditor.config.schema
        event_rows = [
            (e.kind, e.batch_seq, e.pattern.describe(schema),
             "-" if e.difference is None else e.difference)
            for e in auditor.monitor.events
        ]
        print(
            format_table(
                ("event", "batch seq", "region", "difference"),
                event_rows,
                precision=3,
                title=(
                    f"alarm events since the compaction horizon "
                    f"({auditor.monitor.events_dropped} earlier dropped)"
                ),
            )
        )
    return 0


def cmd_stream_compact(args: argparse.Namespace) -> int:
    from repro.stream.service import StreamService

    service, _report = StreamService.open(args.directory, allow_empty=True)
    try:
        before = service.log.generation_bytes()
        service.compact()
        print(
            f"compacted generation {service.log.generation - 1} -> "
            f"{service.log.generation}: {before} -> "
            f"{service.log.generation_bytes()} bytes"
        )
    finally:
        service.close()
    return 0


def _fmt_bytes(n: int) -> str:
    """Human size: ``1.5 MB`` style, decimal units."""
    value = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1000.0 or unit == "GB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1000.0
    return f"{int(n)} B"


def cmd_data_materialize(args: argparse.Namespace) -> int:
    from repro.data.store import Registry, synth_chunks
    from repro.errors import StoreError

    registry = Registry(args.root)
    if args.csv:
        if not args.schema:
            raise StoreError("materialize from --csv needs --schema")
        dataset = _load(args.csv, args.schema)
        store = registry.materialize(
            args.name,
            dataset,
            shard_rows=args.shard_rows,
            source={"kind": "csv", "path": str(args.csv)},
            overwrite=args.overwrite,
        )
    else:
        chunks = synth_chunks(
            DATASETS[args.generator], args.rows, args.shard_rows, args.seed
        )
        store = registry.materialize(
            args.name,
            chunks=chunks,
            shard_rows=args.shard_rows,
            source={
                "kind": "synth",
                "generator": args.generator,
                "rows": args.rows,
                "seed": args.seed,
            },
            overwrite=args.overwrite,
        )
    print(
        f"materialized {args.name}: {store.n_rows} rows in "
        f"{store.n_shards} shard(s) at {registry.path_of(args.name)}"
    )
    return EXIT_OK


def cmd_data_list(args: argparse.Namespace) -> int:
    from repro.data.store import Registry
    from repro.serve.protocol import canonical_json_bytes, registry_payload

    payload = registry_payload(Registry(args.root))
    if args.json:
        # Machine form: exactly the gateway's GET /datasets document.
        sys.stdout.buffer.write(canonical_json_bytes(payload))
        return EXIT_OK
    rows = [
        [
            entry["name"],
            str(entry["n_rows"]),
            str(entry["n_shards"]),
            _fmt_bytes(entry["nbytes"]),
            str(entry["live_leases"]),
        ]
        for entry in payload["datasets"]
    ]
    if rows:
        print(format_table(["name", "rows", "shards", "size", "leases"], rows))
    else:
        print(f"no datasets under {payload['root']}")
    orphans = payload["tmp_dirs"]
    if orphans:
        print(
            f"{len(orphans)} orphaned .tmp-* dir(s) from interrupted "
            f"materializations (run `repro data prune` to sweep)"
        )
    return EXIT_OK


def cmd_data_verify(args: argparse.Namespace) -> int:
    from repro.data.store import Registry

    registry = Registry(args.root)
    names = args.names or registry.names()
    for name in names:
        report = registry.verify(name)
        print(
            f"{name}: ok ({report['n_shards']} shards, "
            f"{report['files_checked']} files, "
            f"{_fmt_bytes(report['bytes_checked'])} hashed)"
        )
    print(f"verified {len(names)} dataset(s)")
    return EXIT_OK


def cmd_data_prune(args: argparse.Namespace) -> int:
    from repro.data.store import Registry

    registry = Registry(args.root)
    report = registry.prune(
        args.names or None, force=args.force, dry_run=args.dry_run
    )
    verb = "would remove" if args.dry_run else "removed"
    for name in report["removed"]:
        print(f"{verb} {name}")
    for name, pids in report["kept"].items():
        print(f"kept {name}: leased by live pid(s) {pids} (use --force)")
    for tmp in report["swept"]:
        print(f"{'would sweep' if args.dry_run else 'swept'} {tmp}")
    if not any((report["removed"], report["kept"], report["swept"])):
        print("nothing to prune")
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.data.store import Registry
    from repro.serve.gateway import AuditGateway, GatewayConfig
    from repro.serve.protocol import canonical_json_bytes
    from repro.serve.remedy import RemedyController, RemedyPolicy
    from repro.stream.service import StreamService

    service, report = StreamService.open(args.directory, allow_empty=True)
    registry = Registry(args.registry) if args.registry else None
    controller = None
    if args.remedy:
        controller = RemedyController(
            service,
            RemedyPolicy(budget=args.remedy_budget, seed=args.remedy_seed),
        )
    gateway = AuditGateway(
        service,
        registry=registry,
        config=GatewayConfig(
            host=args.host,
            port=args.port,
            admission_limit=args.admission_limit,
            deadline_seconds=args.deadline,
        ),
        controller=controller,
    )
    host, port = gateway.address
    # The drain handlers go in before the ready line: a wrapper may send
    # SIGTERM as soon as it reads the line, before run() starts serving.
    gateway.install_signal_handlers()
    # Ready line: one JSON document with the bound address (port 0 resolves
    # here), so wrappers can parse it and know the gateway is accepting.
    sys.stdout.buffer.write(
        canonical_json_bytes(
            {"host": host, "port": port, "recovery": report.describe()}
        )
    )
    sys.stdout.flush()
    gateway.run()  # returns after a SIGTERM/SIGINT-triggered drain
    print("drained")
    return EXIT_OK


def _gateway_client(args: argparse.Namespace):
    from repro.resilience import RetryPolicy
    from repro.serve.client import GatewayClient

    retry = RetryPolicy(
        max_attempts=args.retries, base_delay=args.backoff, jitter=0.5
    )
    return GatewayClient(args.host, args.port, retry=retry)


def cmd_client_health(args: argparse.Namespace) -> int:
    from repro.serve.protocol import canonical_json_bytes

    sys.stdout.buffer.write(canonical_json_bytes(_gateway_client(args).health()))
    return EXIT_OK


def cmd_client_ingest(args: argparse.Namespace) -> int:
    from repro.stream.service import read_batches_file

    client = _gateway_client(args)
    fresh = duplicate = 0
    for batch_id, deltas in read_batches_file(args.batches):
        ack = client.ingest(batch_id, deltas, deadline=args.deadline)
        if ack["duplicate"]:
            duplicate += 1
        else:
            fresh += 1
    print(
        f"acked {fresh + duplicate} batches ({duplicate} duplicate) "
        f"against {args.host}:{args.port}"
    )
    return EXIT_OK


def cmd_client_fetch(args: argparse.Namespace) -> int:
    client = _gateway_client(args)
    dest = client.fetch_dataset(args.name, args.dest)
    print(f"fetched {args.name} into {dest} (sha256-verified)")
    return EXIT_OK


# -- parser wiring ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IBS identification and dataset remedy (ICDE 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace",
            default=None,
            help="write a JSONL span/metric trace of this run (plus a "
            ".manifest.json sidecar) to this path",
        )

    p = sub.add_parser("generate", help="write a synthetic dataset to CSV")
    p.add_argument("dataset", choices=sorted(DATASETS))
    p.add_argument("output", help="output CSV path")
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    add_trace(p)
    p.set_defaults(func=cmd_generate)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tau-c", dest="tau_c", type=float, default=0.1)
        p.add_argument("--T", type=float, default=1.0)
        p.add_argument("--k", type=int, default=30)
        p.add_argument("--scope", choices=("lattice", "leaf", "top"), default="lattice")

    p = sub.add_parser("identify", help="print the Implicit Biased Set of a CSV")
    p.add_argument("csv")
    p.add_argument("--schema", required=True)
    add_common(p)
    p.add_argument("--method", choices=METHODS, default=METHOD_OPTIMIZED)
    add_trace(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("remedy", help="write a remedied copy of a CSV")
    p.add_argument("csv")
    p.add_argument("output")
    p.add_argument("--schema", required=True)
    add_common(p)
    p.add_argument("--technique", choices=TECHNIQUES, default="preferential")
    p.add_argument("--method", choices=METHODS, default=METHOD_OPTIMIZED)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--audit-log",
        dest="audit_log",
        default=None,
        help="also write a JSON audit trail of the applied updates",
    )
    add_trace(p)
    p.set_defaults(func=cmd_remedy)

    p = sub.add_parser("audit", help="train a model and audit subgroup fairness")
    p.add_argument("train")
    p.add_argument("--test", default=None, help="test CSV (default: split train)")
    p.add_argument("--schema", required=True)
    p.add_argument("--model", choices=MODEL_NAMES, default="dt")
    p.add_argument("--gamma", choices=("fpr", "fnr", "positive_rate"), default="fpr")
    p.add_argument("--tau-d", dest="tau_d", type=float, default=0.1)
    p.add_argument("--k", type=int, default=30)
    p.add_argument("--test-fraction", dest="test_fraction", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    add_trace(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("explain", help="diagnose one subgroup against the IBS")
    p.add_argument("csv")
    p.add_argument("--schema", required=True)
    p.add_argument(
        "--subgroup", required=True,
        help="comma-separated attr=label pairs, e.g. 'race=Afr-Am,sex=Male'",
    )
    p.add_argument("--tau-c", dest="tau_c", type=float, default=0.1)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--k", type=int, default=30)
    add_trace(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("plan", help="preview remedy footprints over a tau_c grid")
    p.add_argument("csv")
    p.add_argument("--schema", required=True)
    p.add_argument(
        "--tau-grid", dest="tau_grid", nargs="+", type=float,
        default=[0.1, 0.3, 0.5],
    )
    p.add_argument("--k", type=int, default=30)
    add_trace(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("describe", help="profile a CSV: columns, groups, regions")
    p.add_argument("csv")
    p.add_argument("--schema", required=True)
    p.add_argument("--regions", type=int, default=20)
    add_trace(p)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("report", help="regenerate every artefact into markdown")
    p.add_argument("output", help="output markdown path")
    p.add_argument("--adult-rows", dest="adult_rows", type=int, default=12000)
    p.add_argument("--compas-rows", dest="compas_rows", type=int, default=6172)
    p.add_argument(
        "--lawschool-rows", dest="lawschool_rows", type=int, default=4590
    )
    p.add_argument("--models", nargs="+", default=["dt", "lg"], choices=MODEL_NAMES)
    p.add_argument("--seed", type=int, default=0)
    add_trace(p)
    p.set_defaults(func=cmd_report)

    from repro.analysis.runner import add_arguments, run_args

    p = sub.add_parser(
        "analyze", help="static-analysis pass over Python sources (R001-R014)"
    )
    add_arguments(p).set_defaults(func=run_args)

    p = sub.add_parser("experiment", help="run a paper experiment by id")
    p.add_argument(
        "experiment",
        choices=(
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table3", "fig9",
            "robustness",
        ),
    )
    p.add_argument("--rows", type=int, default=None, help="dataset size override")
    p.add_argument("--models", nargs="+", default=["dt", "lg"], choices=MODEL_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-retries", dest="max_retries", type=int, default=2,
        help="re-attempts per failed cell for typed repro errors (default 2)",
    )
    p.add_argument(
        "--cell-timeout", dest="cell_timeout", type=float, default=None,
        help="wall-clock deadline per cell in seconds (default: none)",
    )
    p.add_argument(
        "--checkpoint", default=None,
        help="JSON file persisting completed cells (written atomically)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="restore completed cells from --checkpoint instead of re-running",
    )
    p.add_argument(
        "--backend", choices=("inproc", "process"), default="inproc",
        help="where sweep cells run: in-process (default) or in a pool of "
        "crash-isolated worker processes",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for --backend process (default 1)",
    )
    add_trace(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("checkpoint", help="inspect or prune sweep checkpoints")
    ckpt_sub = p.add_subparsers(dest="checkpoint_command", required=True)
    p = ckpt_sub.add_parser(
        "inspect", help="print run id, cell counts, and age of a checkpoint"
    )
    p.add_argument("path", help="checkpoint JSON written by experiment --checkpoint")
    p.set_defaults(func=cmd_checkpoint_inspect)
    p = ckpt_sub.add_parser(
        "prune", help="delete all but the newest checkpoints"
    )
    p.add_argument(
        "paths", nargs="+",
        help="checkpoint files and/or directories holding *.json checkpoints",
    )
    p.add_argument(
        "--keep-latest", dest="keep_latest", type=int, default=1,
        help="how many of the newest checkpoints to keep (default 1)",
    )
    p.set_defaults(func=cmd_checkpoint_prune)

    p = sub.add_parser(
        "stream",
        help="continuously audit a changing dataset via a durable delta log",
    )
    stream_sub = p.add_subparsers(dest="stream_command", required=True)
    p = stream_sub.add_parser(
        "init", help="initialise a stream directory (journal genesis)"
    )
    p.add_argument("directory", help="stream directory to create")
    p.add_argument("--schema", required=True, help="schema JSON with protected attrs")
    p.add_argument("--tau-c", dest="tau_c", type=float, default=0.1)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--k", type=int, default=30)
    p.add_argument(
        "--hysteresis", type=float, default=0.0,
        help="alarm clear margin below tau_c (default 0: clear at tau_c)",
    )
    p.add_argument("--queue-limit", dest="queue_limit", type=int, default=64)
    p.add_argument("--retry-budget", dest="retry_budget", type=int, default=2)
    p.add_argument(
        "--segment-bytes", dest="segment_bytes", type=int,
        default=4 * 1024 * 1024,
        help="rotate journal segments past this size (default 4 MiB)",
    )
    p.add_argument(
        "--compact-bytes", dest="compact_bytes", type=int, default=None,
        help="auto-compact when the live generation exceeds this size",
    )
    p.set_defaults(func=cmd_stream_init)
    p = stream_sub.add_parser(
        "ingest", help="journal and apply micro-batches from a JSONL file"
    )
    p.add_argument("directory", help="initialised stream directory")
    p.add_argument(
        "batches",
        help='JSONL file of {"id": ..., "deltas": [["i",[...],label]|'
        '["d",row]|["r",row,label], ...]} lines',
    )
    p.add_argument(
        "--compact", action="store_true",
        help="fold the journal into a fresh generation after ingesting",
    )
    p.set_defaults(func=cmd_stream_ingest)
    p = stream_sub.add_parser(
        "status", help="recover the journal and print watermark/row/alarm counts"
    )
    p.add_argument("directory", help="initialised stream directory")
    p.add_argument(
        "--json", action="store_true",
        help="print the status as one canonical JSON document "
        "(byte-identical to the gateway health endpoint's 'stream' field)",
    )
    p.set_defaults(func=cmd_stream_status)
    p = stream_sub.add_parser(
        "replay", help="rebuild the audited state from the journal and print it"
    )
    p.add_argument("directory", help="initialised stream directory")
    p.add_argument(
        "--to-seq", dest="to_seq", type=int, default=None,
        help="replay only records with seq <= this offset",
    )
    p.set_defaults(func=cmd_stream_replay)
    p = stream_sub.add_parser(
        "alarms", help="print the active drift alarms (and, optionally, events)"
    )
    p.add_argument("directory", help="initialised stream directory")
    p.add_argument(
        "--events", action="store_true",
        help="also print the raise/clear event history since compaction",
    )
    p.set_defaults(func=cmd_stream_alarms)
    p = stream_sub.add_parser(
        "compact", help="fold the journal into a fresh generation now"
    )
    p.add_argument("directory", help="initialised stream directory")
    p.set_defaults(func=cmd_stream_compact)

    p = sub.add_parser(
        "data", help="manage the sharded dataset registry (see docs/datasets.md)"
    )
    data_sub = p.add_subparsers(dest="data_command", required=True)
    p = data_sub.add_parser(
        "materialize",
        help="write a named sharded store from a generator or a CSV",
    )
    p.add_argument("name", help="registry entry name")
    p.add_argument(
        "--root", default=None,
        help="registry root (default: $REPRO_DATA_ROOT or "
        "~/.cache/repro/datasets)",
    )
    p.add_argument(
        "--generator", choices=sorted(DATASETS), default="adult",
        help="synthetic generator, materialized shard by shard (default adult)",
    )
    p.add_argument(
        "--rows", type=int, default=100_000,
        help="total rows for --generator (default 100000)",
    )
    p.add_argument(
        "--shard-rows", type=int, default=100_000,
        help="rows per shard (default 100000)",
    )
    p.add_argument("--seed", type=int, default=5, help="generator seed")
    p.add_argument(
        "--csv", default=None,
        help="materialize this CSV instead of a generator (needs --schema)",
    )
    p.add_argument("--schema", default=None, help="schema JSON for --csv")
    p.add_argument(
        "--overwrite", action="store_true",
        help="replace an existing entry of the same name",
    )
    p.set_defaults(func=cmd_data_materialize)
    p = data_sub.add_parser("list", help="list registry entries")
    p.add_argument("--root", default=None, help="registry root")
    p.add_argument(
        "--json", action="store_true",
        help="print the listing as one canonical JSON document "
        "(byte-identical to the gateway's GET /datasets)",
    )
    p.set_defaults(func=cmd_data_list)
    p = data_sub.add_parser(
        "verify",
        help="re-hash every shard file of the named (or all) entries",
    )
    p.add_argument("names", nargs="*", help="entries to verify (default: all)")
    p.add_argument("--root", default=None, help="registry root")
    p.set_defaults(func=cmd_data_verify)
    p = data_sub.add_parser(
        "prune",
        help="delete entries not leased by a live process; sweep .tmp-* dirs",
    )
    p.add_argument("names", nargs="*", help="entries to prune (default: all)")
    p.add_argument("--root", default=None, help="registry root")
    p.add_argument(
        "--force", action="store_true",
        help="delete even entries leased by live processes",
    )
    p.add_argument(
        "--dry-run", action="store_true",
        help="report what would be deleted without touching disk",
    )
    p.set_defaults(func=cmd_data_prune)

    p = sub.add_parser(
        "serve",
        help="run the fault-tolerant audit gateway over a stream directory "
        "(see docs/serving.md)",
    )
    p.add_argument("directory", help="initialised stream directory to front")
    p.add_argument(
        "--registry", default=None,
        help="also serve the dataset registry at this root (GET /datasets)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0,
        help="port to bind (default 0: ephemeral; the bound port is printed "
        "in the ready line)",
    )
    p.add_argument(
        "--admission-limit", dest="admission_limit", type=int, default=8,
        help="concurrent ingest requests admitted before shedding with 429",
    )
    p.add_argument(
        "--deadline", type=float, default=10.0,
        help="default + ceiling for the per-request ingest deadline (seconds)",
    )
    p.add_argument(
        "--remedy", action="store_true",
        help="remedy-on-drift: journal an automated massaging remedy batch "
        "when new alarms raise (circuit-broken, budget-limited)",
    )
    p.add_argument(
        "--remedy-budget", dest="remedy_budget", type=int, default=8,
        help="max automated remedy batches this server will journal",
    )
    p.add_argument(
        "--remedy-seed", dest="remedy_seed", type=int, default=0,
        help="base seed for the remedy sampler (combined with the watermark)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "client", help="talk to a running audit gateway (retrying client)"
    )
    client_sub = p.add_subparsers(dest="client_command", required=True)

    def _client_common(cp: argparse.ArgumentParser) -> None:
        cp.add_argument("--host", default="127.0.0.1")
        cp.add_argument("--port", type=int, required=True)
        cp.add_argument(
            "--retries", type=int, default=5,
            help="attempts per request (transport faults and 429/503/504)",
        )
        cp.add_argument(
            "--backoff", type=float, default=0.05,
            help="base backoff delay in seconds (exponential, jittered)",
        )

    p = client_sub.add_parser("health", help="print GET /health (canonical JSON)")
    _client_common(p)
    p.set_defaults(func=cmd_client_health)
    p = client_sub.add_parser(
        "ingest",
        help="submit a batches JSONL file through the gateway, idempotently",
    )
    p.add_argument("batches", help="JSONL file (same format as stream ingest)")
    _client_common(p)
    p.add_argument(
        "--deadline", type=float, default=None,
        help="per-request deadline to ask of the server (seconds)",
    )
    p.set_defaults(func=cmd_client_ingest)
    p = client_sub.add_parser(
        "fetch",
        help="download a dataset store, verify every sha256, install atomically",
    )
    p.add_argument("name", help="registry entry name on the server")
    p.add_argument("dest", help="local root directory to install under")
    _client_common(p)
    p.set_defaults(func=cmd_client_fetch)

    p = sub.add_parser("trace", help="inspect JSONL traces written by --trace")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    p = trace_sub.add_parser(
        "summarize", help="render the span tree and metric totals of a trace"
    )
    p.add_argument("trace_file", help="JSONL trace written by --trace")
    p.add_argument(
        "--top", type=int, default=10,
        help="rows in the top-spans-by-self-time table (default 10)",
    )
    p.set_defaults(func=cmd_trace_summarize)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every command runs under an ambient tracer: instrumentation in the
    # library is a no-op-cheap contextvar lookup, and when --trace is set the
    # collected spans/metrics are flushed as JSONL with a manifest sidecar.
    # The trace is written even on failure so a crashed run can be inspected.
    tracer = Tracer()
    try:
        with tracing(tracer):
            code = args.func(args)
        _finish_trace(args, tracer)
        return code
    except KeyboardInterrupt:
        # Completed cells were flushed to the checkpoint as they finished,
        # so an interrupted sweep resumes with --resume and loses nothing.
        print("interrupted", file=sys.stderr)
        with contextlib.suppress(Exception):
            _finish_trace(args, tracer)
        return EXIT_INTERRUPT
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        with contextlib.suppress(Exception):
            _finish_trace(args, tracer)
        return EXIT_REPRO_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
