"""One opencavity CLI call, as the benchmark's child process.

    python bench/child.py STAMPS TRACE -- <opencavity arguments>

Runs ``opencavity.cli.main`` on the arguments exactly as
``python -m opencavity.cli`` does, and writes monotonic timestamps taken at
interpreter start, after ``import opencavity.cli`` and after ``main``
returns to the JSON file STAMPS. With TRACE set to ``-`` nothing else
happens: no wrapper is installed. Otherwise the span recorder of
``spans.py`` wraps the package's functions after the import, and the spans
and counts are written to the file TRACE when ``main`` returns.
"""

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    stamps_path, trace_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py STAMPS TRACE -- ARGS...")
    import opencavity.cli

    t_imported = _now()
    recorder = None
    if trace_path != "-":
        import spans

        recorder = spans.Recorder()
        recorder.install()
    code = 1
    try:
        code = opencavity.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        stamps = {"start": T_START, "imported": t_imported, "end": _now(),
                  "exit": code}
        with open(stamps_path, "w", encoding="utf-8") as fh:
            json.dump(stamps, fh)
        if recorder is not None:
            recorder.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
