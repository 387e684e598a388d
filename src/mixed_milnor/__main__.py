"""`python -m mixed_milnor` runs the command line."""

from .cli import main

main()
