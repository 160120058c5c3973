"""End-to-end and per-layer benchmark of qmn; see README.md beside this file."""
