"""``repro serve``: the multi-tenant job service on the provenance
cache (:mod:`repro.serve`)."""

from __future__ import annotations

from repro.cli import add_command
from repro.cli.provenance import (
    add_gc_budget_flags,
    add_store_flag,
    gc_budget,
    open_store,
)


def cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serve import DEFAULT_SOCKET, JobService

    gc_keep, gc_max_age_s, gc_max_bytes = gc_budget(args)
    use_tcp = args.port is not None
    service = JobService(
        open_store(args),
        workers=args.workers,
        socket_path=None if use_tcp else (args.socket or DEFAULT_SOCKET),
        host=args.host if use_tcp else None,
        port=args.port or 0,
        max_queue=args.max_queue if args.max_queue > 0 else None,
        retries=args.retries,
        enable_chaos=args.chaos_hooks,
        gc_every_s=args.gc_every,
        gc_max_age_s=gc_max_age_s,
        gc_max_bytes=gc_max_bytes,
        gc_keep=gc_keep,
    )

    async def amain() -> None:
        await service.start()
        print(f"repro serve: listening on {service.endpoint} "
              f"({service.workers} worker process(es), "
              f"store {service.store.root})", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, service.request_shutdown)
            except NotImplementedError:  # pragma: no cover
                pass
        await service.run()

    asyncio.run(amain())
    s = service.stats
    print(f"repro serve: exiting — {s.submissions} submissions, "
          f"{s.hits} hits, {s.executed} executed, {s.coalesced} coalesced, "
          f"{s.errors} errors, {s.shed} shed, {s.quarantined} quarantined, "
          f"{s.gc_cycles} gc cycles", flush=True)
    return 0


def register(sub) -> None:
    serve = add_command(sub, "serve", cmd_serve)
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="Unix socket path (default .repro/serve.sock)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (with --port; "
                            "default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None, metavar="N",
                       help="listen on TCP instead of the Unix socket "
                            "(0 = ephemeral port, printed at startup)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker pool size (default 2)")
    serve.add_argument("--max-queue", type=int, default=256, metavar="N",
                       help="admission watermark: shed new executions "
                            "past N in flight (default 256; <=0 "
                            "disables shedding)")
    serve.add_argument("--retries", type=int, default=2, metavar="N",
                       help="retry a job whose worker died up to N "
                            "times before quarantining it (default 2)")
    serve.add_argument("--chaos-hooks", action="store_true",
                       help="accept protocol-level fault-injection "
                            "envelopes (service chaos campaigns only; "
                            "never on a real deployment)")
    serve.add_argument("--gc-every", type=float, default=None, metavar="S",
                       help="run the store janitor every S seconds, "
                            "under the gc budget below")
    add_gc_budget_flags(serve)
    add_store_flag(serve)
