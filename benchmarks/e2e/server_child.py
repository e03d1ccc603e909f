"""The ``ic-wire`` server: one process that owns the database and serves it.

Started by the harness (``workloads.ServerProcess``); speaks JSON lines on
stdin/stdout beside the wire socket, because everything that needs the
catalog — set-up timing, the oracle, the layer probes, resident set — can
only be measured where the catalog lives::

    -> (start)                          <- {"address": [...], "setup_s": ..., "stages": {...}, ...}
    -> {"cmd": "trace"}                 <- {"ok": true}        spans on
    -> {"cmd": "untrace", "trace_path"} <- {"layers": {...}}   spans off, written out
    -> {"cmd": "peak_rss"}              <- {"peak_rss_mb": ...}  asked before the oracle runs
    -> {"cmd": "oracle", "requests"}    <- {"answers": {key: digest}}
    -> {"cmd": "finish", "probes"}      <- {"append_p50_ms": ..., "layers": {...}}; exit 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness

    harness.bootstrap()
    import layers
    import mix
    import oracle
    import setup_db
    from repro.serving.wire import Server
    from spans import Tracer

    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    def reply(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    built, setup_s, stages = setup_db.build_repeated(("ldbc",), args.scale)
    ldbc = built["ldbc"]
    tracer = Tracer()
    live = oracle.Oracle({"ldbc": (ldbc.catalog, ldbc.graph_name)})
    finish: dict | None = None
    with Server(ldbc.database) as server:
        reply({
            "address": list(server.address), "setup_s": setup_s, "stages": stages,
            "resident_bytes": layers.resident_bytes([ldbc.catalog]),
        })
        for line in sys.stdin:
            message = json.loads(line)
            if message["cmd"] == "trace":
                tracer.install()
                reply({"ok": True})
            elif message["cmd"] == "untrace":
                tracer.uninstall()
                tracer.dump(Path(message["trace_path"]), {"process": "ic-wire server"})
                reply({"layers": layers.span_metrics(tracer.spans)})
            elif message["cmd"] == "peak_rss":
                reply({"peak_rss_mb": harness.peak_rss_mb()})
            elif message["cmd"] == "oracle":
                reply({"answers": {
                    r["key"]: live.answer(harness.Request(r["name"], r["key"], r["sql"]))
                    for r in message["requests"]
                }})
            elif message["cmd"] == "finish":
                finish = message
                break
    if finish is None:
        return  # stdin closed without "finish": the harness died; just leave
    # The wire server is closed; what follows needs the database only.
    out = {"plan_cache": ldbc.database.plan_cache.stats.snapshot()}
    if finish["probes"]:
        out["layers"] = {
            "relational.optimizer.trees_visited": layers.trees_visited(
                {"ldbc": ldbc}, mix.warmup_requests()
            ),
            **layers.run_probes(ldbc, args.seed),
        }
        out["append_p50_ms"] = out["layers"].pop("append_p50_ms")
    else:
        out["append_p50_ms"] = layers.append_probe(ldbc)["append_p50_ms"]
    ldbc.database.close()
    reply(out)


if __name__ == "__main__":
    main()
