"""``python -m repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_traced.py SPANS.json serve --data-root DIR --port 0

Only the traced run of the ``service-jobs`` workload starts the daemon this
way; timed runs start ``python -m repro serve`` itself.  The spans are
written to ``SPANS.json`` when the daemon exits (SIGTERM or Ctrl-C).
Needs ``src`` on ``PYTHONPATH``; ``run.py`` sets it.
"""

from __future__ import annotations

import atexit
import sys


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    spans_path, cli_args = argv[0], argv[1:]
    import layers

    tracer = layers.Tracer()
    with tracer.span("import"):
        from repro.study import cli
        import repro.service.daemon  # noqa: F401 - `serve` imports it lazily
    tracer.install(layers.LAYER_TARGETS + layers.DAEMON_TARGETS)
    atexit.register(layers.dump_to, tracer, spans_path)
    return cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main())
