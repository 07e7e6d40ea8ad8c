"""Verification and synthesis toolkit for supervisory control of fuzzy
discrete-event systems."""

__version__ = "0.1.0"
