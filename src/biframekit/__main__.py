"""``python -m biframekit``: the command-line interface."""

from .app.cli import main

main()
