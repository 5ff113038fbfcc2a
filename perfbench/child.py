"""One benchmark operation: a fresh interpreter that runs ``cli.main(argv)`` once.

Usage: ``python3 child.py SPEC.json`` where the spec holds ``argv``
(null for a set-up probe that only imports the CLI), ``trace``,
``src`` (the directory ``relevance_kit`` must be imported from) and
``result`` (where to write the timings as JSON).
"""

import json
import os
import sys
import time

import relevance_kit.cli as cli

READY = time.monotonic()


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(spec["src"], "relevance_kit"):
        raise SystemExit(f"relevance_kit imported from {cli.__file__}, not from {spec['src']}")
    out = {"ready": READY}
    if spec["argv"] is not None:
        if spec["trace"]:
            import tracing

            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                start = time.perf_counter()
                out["rc"] = tracer.wrap("cli.main", cli.main)(spec["argv"])
                out["wall_s"] = time.perf_counter() - start
            out["spans"] = tracer.spans
            out["shp_rank_fracs"] = [tracing.last_rank_frac(c, p) for c, p in tracer.shp_runs]
        else:
            start = time.perf_counter()
            out["rc"] = cli.main(spec["argv"])
            out["wall_s"] = time.perf_counter() - start
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        out["maxrss_kb"] = usage.ru_maxrss
        out["cpu_s"] = usage.ru_utime + usage.ru_stime
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
