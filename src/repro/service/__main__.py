"""CLI entry point: serve the HTTP API, run workers, submit and poll jobs.

::

    python -m repro.service serve  --store DIR [--port 8642] [--workers 4]
    python -m repro.service worker --store DIR [--idle-exit 30] [--once]
    python -m repro.service submit --url http://HOST:PORT spec.json [--wait]
    python -m repro.service status --url http://HOST:PORT JOB_ID

``serve`` optionally spawns local worker processes (``--workers N``)
that drain the same store the HTTP app enqueues into, and stops them
when it is stopped by Ctrl-C or SIGTERM; additional
``worker`` processes may be started on any machine sharing the store's
filesystem.  ``submit`` reads one scenario JSON document (the same
format ``python -m repro.experiments run --spec`` takes, ``-`` for
stdin), submits it as one job and prints the service's JSON response;
with ``--wait`` it polls to completion and prints the final job *and*
its result payload, so scripts never scrape human-formatted output.

Each command imports what only it needs (``serve`` the HTTP server,
``submit`` and ``status`` the HTTP client), so a ``worker`` process
loads neither.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from typing import List, Optional

from repro.service.app import DEFAULT_HOST, DEFAULT_MAX_QUEUE, DEFAULT_PORT, SimulationService
from repro.service.queue import DEFAULT_LEASE_TTL_S
from repro.service.store import JobStore
from repro.service.worker import Worker


def _make_cache(store: JobStore, cache_dir: Optional[str]):
    from repro.experiments.parallel import ResultCache

    return ResultCache(cache_dir if cache_dir is not None else store.cache_dir)


def _spawn_workers(count: int, args) -> List[subprocess.Popen]:
    """Start ``count`` standalone worker processes against the same store."""
    command = [
        sys.executable, "-m", "repro.service", "worker",
        "--store", str(args.store),
        "--lease-ttl", str(args.lease_ttl),
    ]
    if args.cache_dir is not None:
        command += ["--cache-dir", args.cache_dir]
    return [subprocess.Popen(command) for _ in range(count)]


def _interrupt(signum, frame) -> None:
    """SIGTERM handler: stop ``serve`` the way Ctrl-C does."""
    raise KeyboardInterrupt


def _cmd_serve(args) -> int:
    from repro.service.server import make_server

    store = JobStore(args.store)
    cache = _make_cache(store, args.cache_dir)
    service = SimulationService(store, cache, max_queue=args.max_queue)
    server = make_server(service, args.host, args.port, verbose=args.verbose)
    host, port = server.server_address[:2]
    # A plain `kill` takes the same way out as Ctrl-C, through the
    # `finally` that stops the spawned workers.
    signal.signal(signal.SIGTERM, _interrupt)
    workers: List[subprocess.Popen] = []
    try:
        workers = _spawn_workers(args.workers, args) if args.workers else []
        print(
            f"serving on http://{host}:{port} (store {store.root}, "
            f"{len(workers)} local worker(s))",
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # A second SIGTERM must not cut the workers' shutdown short.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        server.server_close()
        for process in workers:
            process.send_signal(signal.SIGTERM)
        for process in workers:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
    return 0


def _cmd_worker(args) -> int:
    store = JobStore(args.store)
    worker = Worker(
        store,
        cache=_make_cache(store, args.cache_dir),
        worker_id=args.worker_id,
        lease_ttl_s=args.lease_ttl,
        poll_s=args.poll,
    )
    if args.once:
        record = worker.run_once()
        print("idle" if record is None else f"{record.job_id}: {record.state}", flush=True)
        return 0
    import threading

    stop = threading.Event()
    # Finish (or fail) the job in flight, then exit cleanly on SIGTERM —
    # `serve` shuts its spawned workers down this way.
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    processed = worker.run_forever(
        max_jobs=args.max_jobs, idle_exit_s=args.idle_exit, stop_event=stop
    )
    print(f"processed {processed} job(s) ({worker.jobs_failed} failed)", flush=True)
    return 0


def _print_json(document) -> None:
    json.dump(document, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_submit(args) -> int:
    from repro.service.client import JobFailed, ServiceClient, ServiceError

    if args.spec == "-":
        document = json.load(sys.stdin)
    else:
        with open(args.spec, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    client = ServiceClient(args.url)
    try:
        response = client.submit(document, max_attempts=args.max_attempts)
    except ServiceError as exc:
        print(f"submit rejected: {exc}", file=sys.stderr)
        return 2
    if not args.wait:
        _print_json(response)
        return 0
    try:
        job = client.wait(
            str(response["job_id"]), timeout_s=args.timeout, poll_s=args.poll
        )
    except JobFailed as exc:
        _print_json(exc.payload)
        print(f"job failed: {exc}", file=sys.stderr)
        return 1
    except TimeoutError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    digest = str(job["digest"])
    document = {"job": job, "results": {digest: client.result(digest)}}
    _print_json(document)
    return 0


def _cmd_status(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        _print_json(client.job(args.job_id))
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Simulation-as-a-service: job queue + HTTP API over the result cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    store_args = argparse.ArgumentParser(add_help=False)
    store_args.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="job store root (default: $REPRO_SERVICE_DIR or .repro-service)",
    )
    store_args.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shared result cache root (default: <store>/cache)",
    )
    store_args.add_argument(
        "--lease-ttl",
        type=float,
        default=DEFAULT_LEASE_TTL_S,
        metavar="SECONDS",
        help=f"lease expiry without a heartbeat (default {DEFAULT_LEASE_TTL_S:g})",
    )

    serve = sub.add_parser("serve", help="run the HTTP API", parents=[store_args])
    serve.add_argument("--host", default=DEFAULT_HOST)
    serve.add_argument("--port", type=int, default=DEFAULT_PORT, help="0 = ephemeral")
    serve.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="spawn N local worker processes draining this store (default 0)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=DEFAULT_MAX_QUEUE, metavar="N",
        help=f"backpressure threshold: 429 past N waiting jobs (default {DEFAULT_MAX_QUEUE})",
    )
    serve.add_argument("--verbose", action="store_true", help="log every request")

    worker = sub.add_parser(
        "worker", help="drain jobs from a store (run on any machine sharing it)",
        parents=[store_args],
    )
    worker.add_argument("--once", action="store_true", help="process at most one job, then exit")
    worker.add_argument("--max-jobs", type=int, default=None, metavar="N")
    worker.add_argument(
        "--idle-exit", type=float, default=None, metavar="SECONDS",
        help="exit after this long with an empty queue (default: poll forever)",
    )
    worker.add_argument("--poll", type=float, default=0.5, metavar="SECONDS")
    worker.add_argument("--worker-id", default=None)

    url_args = argparse.ArgumentParser(add_help=False)
    url_args.add_argument(
        "--url",
        default=f"http://{DEFAULT_HOST}:{DEFAULT_PORT}",
        help=f"service base URL (default http://{DEFAULT_HOST}:{DEFAULT_PORT})",
    )

    submit = sub.add_parser(
        "submit", help="POST one scenario JSON document", parents=[url_args]
    )
    submit.add_argument("spec", metavar="SPEC.json", help="scenario document file, or - for stdin")
    submit.add_argument("--max-attempts", type=int, default=None, metavar="N")
    submit.add_argument("--wait", action="store_true", help="poll to completion, print results")
    submit.add_argument("--timeout", type=float, default=300.0, metavar="SECONDS")
    submit.add_argument("--poll", type=float, default=0.2, metavar="SECONDS")

    status = sub.add_parser("status", help="print one job's status JSON", parents=[url_args])
    status.add_argument("job_id", metavar="JOB_ID")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "serve": _cmd_serve,
        "worker": _cmd_worker,
        "submit": _cmd_submit,
        "status": _cmd_status,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
