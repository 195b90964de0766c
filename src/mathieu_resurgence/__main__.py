"""``python -m mathieu_resurgence`` and the ``mathieu-resurgence`` script.

A command run before prints its recorded stdout, the cache entry of its
argv, without importing the CLI; any other runs the CLI, and a run that
exits 0 with its result on stdout is recorded.  In-process callers of
``cli.main`` neither replay nor record.
"""
import sys

from . import replay


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    text = replay.lookup(argv)
    if text is not None:
        sys.stdout.write(text)
        return 0
    from . import cli

    code, text = cli.run(argv)
    if code == cli.EXIT_OK and text is not None:
        try:
            replay.put(argv, text)
        except OSError as exc:
            sys.stderr.write(f"cache: result not stored: {exc}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
