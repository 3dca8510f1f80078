"""``python -m viking``: the command-line interface."""

from .cli import entrypoint

entrypoint()
