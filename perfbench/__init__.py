"""Seeded benchmark of the ttckit CLI; see README.md in this directory."""
