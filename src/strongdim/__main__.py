"""``python -m strongdim``: the same command line as the ``strongdim`` script."""

from .cli import run

if __name__ == "__main__":
    run()
