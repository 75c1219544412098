"""``python -m degenwave``: the same command line as the ``degenwave`` script."""

from .cli import main

if __name__ == "__main__":
    main()
