"""Saturation checks for weak deterministic Buchi automata over digit alphabets.

Import each name from the module that defines it, such as
``rvacheck.check`` or ``rvacheck.aut_io``: the package root imports
nothing, so a check loads only the modules on its path.
"""
