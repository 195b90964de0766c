"""``python -m mathieu_resurgence`` and the ``mathieu-resurgence`` script.

A command run before prints its recorded stdout (``replay``) without
importing the CLI; any other runs the CLI, and a run that exits 0 with
its result on stdout is recorded.  In-process callers of ``cli.main``
neither replay nor record.
"""
import sys

from . import replay


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    text = replay.replay(argv)
    if text is not None:
        sys.stdout.write(text)
        return 0
    from . import cli

    code, text = cli.run(argv)
    if code == cli.EXIT_OK and text is not None:
        replay.record(argv, text)
    return code


if __name__ == "__main__":
    sys.exit(main())
