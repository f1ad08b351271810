"""The repo's two-clock benchmark; see README.md and ``run.py``."""
