"""Subprocesses started by the tests import bouwmoller from this checkout."""

import os

import bouwmoller

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bouwmoller.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
