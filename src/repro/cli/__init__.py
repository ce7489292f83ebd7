"""The ``repro`` command-line package.

One module per subcommand (``audit``, ``trace``, ``figures``,
``demo``, ``info``) except ``stream`` and ``serve``, which share
:mod:`repro.cli.run` (one run on either clock); shared argparse types
and flag checks in :mod:`repro.cli.validators`, and the parser
assembly in :mod:`repro.cli.parser` (whose module docstring is the
``--help`` text).  :mod:`repro.__main__` is a thin shim over
:func:`main` so ``python -m repro`` and ``from repro.__main__ import
main`` keep working unchanged.

Subcommand modules expose ``run(args) -> int``; heavy imports live
inside those functions so ``--help`` stays fast and a broken optional
subsystem cannot take down the whole CLI.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from .parser import SUBCOMMANDS, build_parser

__all__ = ["SUBCOMMANDS", "build_parser", "main"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad input (e.g. an unknown subcommand) and
        # 0 for --help; normalise the error path to help + status 2 so
        # the CLI never silently falls through.
        code = exc.code if isinstance(exc.code, int) else 2
        if code == 0:
            return 0
        parser.print_help()
        return 2

    if args.command == "figures":
        from .figures import run

        return run(args)

    if args.command == "demo":
        from .demo import run

        return run(args)

    if args.command == "info":
        from .info import run

        return run(args)

    if args.command in ("stream", "serve", "audit", "trace"):
        from importlib import import_module

        from ..errors import ReproError

        name = "run" if args.command in ("stream", "serve") else args.command
        module = import_module(f".{name}", __package__)
        try:
            return module.run(args)
        except ReproError as exc:
            print(f"repro {args.command}: {exc}", file=sys.stderr)
            return 2

    parser.print_help()
    return 2
