"""Whole-extraction benchmark; see README.md and run.py."""
