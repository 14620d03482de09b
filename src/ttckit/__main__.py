"""Module entry point: python -m ttckit."""

from .cli import run

if __name__ == "__main__":
    run()
