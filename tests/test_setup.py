"""Packaging metadata: ``setup.py`` names the package it installs."""

import os
import subprocess
import sys

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))


def test_setup_py_reports_package_name():
    """Without metadata setuptools reports ``UNKNOWN`` and an
    editable install ships no package."""
    out = subprocess.run(
        [sys.executable, "setup.py", "--name"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    name = out.stdout.strip().splitlines()[-1]
    assert name != "UNKNOWN"
    assert name == "repro"
