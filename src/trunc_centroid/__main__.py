"""`python -m trunc_centroid`: the same entry point as the console script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
