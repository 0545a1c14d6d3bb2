"""Run the command-line interface as ``python -m domdist <command> ...``."""

from .cli import entrypoint

entrypoint()
