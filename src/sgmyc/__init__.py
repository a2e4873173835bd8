"""Signed graph toolkit built around the Mycielskian construction.

The package splits along the natural seams of the subject: core holds
the data model and generators, balance the switching certificates,
mycielskian the plain and balanced constructions, coloring the exact
chromatic solver, matrices the exact matrix constructors, exactla the
integer kernels behind them, claims the paper's claims that the audit
command checks, and cli the command line front end.
"""
