"""``python -m mathieu_resurgence`` and the ``mathieu-resurgence`` script.

A command run before prints its recorded stdout, the cache entry
``["replay", argv]``, without importing the CLI; any other runs the CLI,
and a run that exits 0 with its result on stdout is recorded.  In-process
callers of ``cli.main`` neither replay nor record.
"""
import sys

from . import replay


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    key = ["replay", argv]
    text = replay.lookup(key)
    if text is not None:
        sys.stdout.write(text)
        return 0
    from . import cli

    code, text = cli.run(argv)
    if code == cli.EXIT_OK and text is not None:
        # best effort, and silent: a replay entry that cannot be written
        # only costs the next run its replay, and a run that computed its
        # payload has already said so on stderr when the cache directory
        # cannot be written
        try:
            replay.put(key, text)
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
