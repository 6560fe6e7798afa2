"""Argument parsing for ``python -m repro`` subcommands that return a status.

``bench``, ``trace``, ``explain`` and ``watch`` are called as
``main(argv) -> int`` by ``repro.__main__`` and by their tests, and report
usage errors on stdout with status 2.  :class:`Parser` is an
``ArgumentParser`` that keeps that contract: parsing never leaves the
process.
"""

from __future__ import annotations

import argparse
from typing import Any


class Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose :meth:`parse` returns instead of exiting,
    with one ``--flag`` per row of ``flags`` (dest -> ``add_argument``
    keywords) in table order."""

    def __init__(self, flags: dict[str, dict[str, Any]], **keywords: Any):
        # Abbreviations would accept spellings the subcommands never had.
        super().__init__(allow_abbrev=False, **keywords)
        for dest, flag in flags.items():
            self.add_argument("--" + dest.replace("_", "-"), **flag)

    def parse(self, argv: list[str]) -> argparse.Namespace | int:
        """The parsed arguments, or the exit status: 2 after printing a
        usage error, 0 after printing ``--help``."""
        try:
            return self.parse_args(argv)
        except SystemExit as leave:
            return leave.code

    def error(self, message: str):
        print(f"{self.format_usage()}{self.prog}: error: {message}")
        raise SystemExit(2)
