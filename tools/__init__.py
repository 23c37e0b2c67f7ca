"""Repository tools: ``identity.py`` runs against a ``repro`` source tree;
``explore.py`` drives any small state machine and imports only the stdlib."""
