"""Host-time benchmark of the simulation stack (see README.md)."""
