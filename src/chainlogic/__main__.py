"""``python -m chainlogic``: the same command line as the ``chainlogic`` script."""

from .cli import main

if __name__ == "__main__":
    main()
