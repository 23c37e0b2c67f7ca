"""Repository tools that run against a ``repro`` source tree (see ``identity.py``)."""
