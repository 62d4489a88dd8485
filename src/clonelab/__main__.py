"""`python -m clonelab`: the same command line as the `clonelab` script."""

from .cli import main

if __name__ == "__main__":
    main()
