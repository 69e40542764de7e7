"""Package metadata for ``pip install -e .``.

A plain setuptools script rather than ``pyproject.toml``, so editable
installs work in offline environments whose pip/setuptools cannot
build PEP 517 editable wheels (no ``wheel`` package available).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
