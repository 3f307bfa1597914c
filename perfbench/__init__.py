"""End-to-end and per-layer benchmark of the ledger simulator (see README.md)."""
